(** Parameter initialization for the encoder layer.

    Weights are drawn from a truncated-free gaussian with BERT's 0.02
    standard deviation; biases start at zero; layer-norm gains at one.
    Initialization is deterministic in the hyperparameters' seed. *)

(** [init hp] returns bindings for every name in {!Encoder.param_names}. *)
val init : Hparams.t -> (string * Dense.t) list

(** [random_input hp prng] draws an embedding-scaled input [x]. *)
val random_input : Hparams.t -> Prng.t -> Dense.t

(** [random_cotangent hp prng] draws an output gradient [d_y]. *)
val random_cotangent : Hparams.t -> Prng.t -> Dense.t

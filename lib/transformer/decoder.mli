(** GPT-style decoder block (paper §VIII: "Additional transformer networks,
    such as Megatron-LM and GPT-3, only differ by dimensions and minor
    aspects in the encoder and decoder blocks ... the recipe remains
    unchanged").

    The block is the encoder layer with causally-masked self-attention and
    a GELU feed-forward activation; everything else — containers, backward
    structure, fusion opportunities — is shared, which is exactly the
    paper's point. KV-cached decoding runs slices of this same program
    around the cached attention (see {!Model.decode_plans}). *)

val program : ?variant:Encoder.qkv_variant -> Hparams.t -> Ops.Program.t

val run :
  Hparams.t -> x:Dense.t -> d_y:Dense.t -> params:(string * Dense.t) list
  -> Ops.Op.env

(** Kernel-name table for the decoder's fused groups (BGD replaces BRD). *)
val kernel_names : (string list * string) list

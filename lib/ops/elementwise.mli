(** Element-wise operator constructors (paper class ○): biases, dropout,
    activations, residual connections, and their backward passes.

    Conventions: [dims] lists the axes and extents of the primary tensor;
    flop is counted as one operation per produced element (ReLU counts
    zero, matching the paper's Table III). Dropout is "inverted" (scaling
    by 1/(1-p) at training time) and draws its mask deterministically from
    [seed] and the operator name, so any fused re-implementation reproduces
    the identical mask. *)

(** [bias ~name ~x ~bias ~out dims ~bias_axes] adds a broadcast bias. *)
val bias :
  name:string -> x:string -> bias:string -> out:string
  -> (Axis.t * int) list -> bias_axes:Axis.t list -> ?backward:bool -> unit
  -> Op.t

(** [bias_dw ~name ~dy ~out dims ~bias_axes] is the bias gradient: a
    reduction of [dy] over the non-bias axes — classified as a statistical
    normalization, as in Table III. *)
val bias_dw :
  name:string -> dy:string -> out:string -> (Axis.t * int) list
  -> bias_axes:Axis.t list -> Op.t

val relu :
  name:string -> x:string -> out:string -> (Axis.t * int) list
  -> ?backward:bool -> unit -> Op.t

val relu_dx :
  name:string -> dy:string -> x:string -> out:string -> (Axis.t * int) list
  -> Op.t

(** GELU (tanh approximation), the activation GPT-style decoder blocks use
    in place of ReLU. *)
val gelu :
  name:string -> x:string -> out:string -> (Axis.t * int) list
  -> ?backward:bool -> unit -> Op.t

val gelu_dx :
  name:string -> dy:string -> x:string -> out:string -> (Axis.t * int) list
  -> Op.t

(** Scalar helpers shared with tests and the fused kernels ({!Fastpath}). *)
val gelu_value : float -> float

val gelu_grad : float -> float

val sigmoid_value : float -> float

val dropout :
  name:string -> x:string -> out:string -> mask:string
  -> (Axis.t * int) list -> p:float -> seed:int64 -> ?backward:bool -> unit
  -> Op.t

val dropout_dx :
  name:string -> dy:string -> mask:string -> out:string
  -> (Axis.t * int) list -> p:float -> Op.t

(** Gate activations for recurrent cells (paper §VIII: RNNs reuse the same
    operator classes). Both save their output for the backward pass. *)

val sigmoid :
  name:string -> x:string -> out:string -> (Axis.t * int) list
  -> ?backward:bool -> unit -> Op.t

val sigmoid_dx :
  name:string -> dy:string -> y:string -> out:string -> (Axis.t * int) list
  -> Op.t

val tanh_ :
  name:string -> x:string -> out:string -> (Axis.t * int) list
  -> ?backward:bool -> unit -> Op.t

val tanh_dx :
  name:string -> dy:string -> y:string -> out:string -> (Axis.t * int) list
  -> Op.t

(** [hadamard ~name ~x ~y ~out dims] is the element-wise product (LSTM
    gating). *)
val hadamard :
  name:string -> x:string -> y:string -> out:string -> (Axis.t * int) list
  -> ?backward:bool -> unit -> Op.t

(** [hadamard_dx ~name ~dy ~other ~out dims] is one branch of its backward:
    [d_x = dy * other]. *)
val hadamard_dx :
  name:string -> dy:string -> other:string -> out:string
  -> (Axis.t * int) list -> Op.t

(** [add ~name ~x ~y ~out dims] is the residual connection (also used to
    merge gradient paths in backpropagation). *)
val add :
  name:string -> x:string -> y:string -> out:string -> (Axis.t * int) list
  -> ?backward:bool -> unit -> Op.t

(** [copy ~name ~x ~out dims] forwards a tensor unchanged (zero flop). *)
val copy :
  name:string -> x:string -> out:string -> (Axis.t * int) list
  -> ?backward:bool -> unit -> Op.t

(** [dropout_keep_scale p] is 1/(1-p), exposed for the fused kernels. *)
val dropout_keep_scale : float -> float

(** [dropout_mask ~seed ~name dims ~p] materializes the mask tensor the
    dropout operator [name] would draw — shared with fused kernels. *)
val dropout_mask :
  seed:int64 -> name:string -> (Axis.t * int) list -> p:float -> Dense.t

(** Statistical-normalization operator constructors (paper class ⬜):
    softmax and layer normalization, forward and backward.

    Softmax optionally folds the attention scaling (1/sqrt(P)) into its
    input, as PyTorch's scaled softmax does; our recipe instead folds that
    scaling into the preceding contraction (paper §IV-C), so the constructor
    takes [prescale]. LayerNorm normalizes over [axis] (the embedding axis)
    and carries affine parameters gamma/beta; it saves mean and inverse
    standard deviation for the backward pass, as fused training kernels do. *)

(** [softmax ~name ~x ~out dims ~axis ?prescale ?causal] computes
    [softmax(prescale * x)] along [axis], numerically stabilized.
    [causal:(q, k)] masks entries where the key position exceeds the query
    position (decoder self-attention, "not seeing the future"). *)
val softmax :
  name:string -> x:string -> out:string -> (Axis.t * int) list
  -> axis:Axis.t -> ?prescale:float -> ?causal:Axis.t * Axis.t
  -> ?backward:bool -> unit -> Op.t

(** [causal_mask ~q ~k dims] is 0 where key <= query and -inf elsewhere. *)
val causal_mask : q:Axis.t -> k:Axis.t -> (Axis.t * int) list -> Dense.t

(** [softmax_masked ?mask x ~axis ~prescale] is
    [softmax(prescale * x + mask)] along [axis], sharing the stabilized
    core of the {!softmax} op. A broadcastable 0/-inf [mask] pads ragged
    decode batches with exactly the arithmetic of the causal path, which
    keeps KV-cached decoding bitwise equal to the recompute oracle. *)
val softmax_masked :
  ?mask:Dense.t -> Dense.t -> axis:Axis.t -> prescale:float -> Dense.t

(** [softmax_dx ~name ~dy ~y ~out dims ~axis ?prescale] uses the saved
    forward output [y]: [dx = prescale * y * (dy - sum_axis(dy * y))]. *)
val softmax_dx :
  name:string -> dy:string -> y:string -> out:string -> (Axis.t * int) list
  -> axis:Axis.t -> ?prescale:float -> unit -> Op.t

(** [layernorm ~name ~x ~gamma ~beta ~out ~mean ~istd dims ~axis] writes the
    normalized output plus saved statistics. *)
val layernorm :
  name:string -> x:string -> gamma:string -> beta:string -> out:string
  -> mean:string -> istd:string -> (Axis.t * int) list -> axis:Axis.t
  -> ?eps:float -> ?backward:bool -> unit -> Op.t

(** [layernorm_dx] computes the input gradient from saved statistics. *)
val layernorm_dx :
  name:string -> dy:string -> x:string -> gamma:string -> mean:string
  -> istd:string -> out:string -> (Axis.t * int) list -> axis:Axis.t -> Op.t

(** [layernorm_dw] computes dgamma and dbeta (reductions over the
    non-normalized axes). *)
val layernorm_dw :
  name:string -> dy:string -> x:string -> mean:string -> istd:string
  -> dgamma:string -> dbeta:string -> (Axis.t * int) list -> axis:Axis.t
  -> Op.t

(** Batch normalization (paper §VIII: Instance/Group/Batch normalization
    "share properties (normalizing a dimension) and are optimized in exactly
    the same way"). Normalizes every axis except [channel]; gain and bias
    are per-channel. Statistics are saved for the backward pass. *)
val batchnorm :
  name:string -> x:string -> gamma:string -> beta:string -> out:string
  -> mean:string -> istd:string -> (Axis.t * int) list -> channel:Axis.t
  -> ?eps:float -> ?backward:bool -> unit -> Op.t

val batchnorm_dx :
  name:string -> dy:string -> x:string -> gamma:string -> mean:string
  -> istd:string -> out:string -> (Axis.t * int) list -> channel:Axis.t
  -> Op.t

(** [batchnorm_dw] coincides with {!layernorm_dw} with [axis = channel]
    (both reduce over every non-parameter axis). *)
val batchnorm_dw :
  name:string -> dy:string -> x:string -> mean:string -> istd:string
  -> dgamma:string -> dbeta:string -> (Axis.t * int) list -> channel:Axis.t
  -> Op.t

(** [normalized ~x ~mean ~istd ~axis] recomputes xhat — shared with the
    fused backward kernels. *)
val normalized : Dense.t -> mean:Dense.t -> istd:Dense.t -> Dense.t

(** Default layer-normalization epsilon (1e-5, PyTorch's default). *)
val default_eps : float

(** Standalone multi-head self-attention (paper Fig. 1, Table IV).

    The program is the attention slice of the encoder: the Q/K/V input
    projections (with a choice of algebraic fusion), input biases, QK^T,
    scaled softmax with dropout, gamma, the output projection and its bias
    — plus the corresponding backward operators. Input containers are [x]
    and the output cotangent [d_attn_b]. *)

val program : ?variant:Encoder.qkv_variant -> Hparams.t -> Ops.Program.t
val forward_program : ?variant:Encoder.qkv_variant -> Hparams.t -> Ops.Program.t

(** [run hp ~x ~d_out ~params] interprets the program; the output is in
    container ["attn_b"], the input gradient in ["d_x_attn"]. *)
val run :
  Hparams.t -> x:Dense.t -> d_out:Dense.t -> params:(string * Dense.t) list
  -> Ops.Op.env

(** Parameters used by MHA (subset of {!Encoder.param_names}). *)
val param_names : string list

val kernel_names : (string list * string) list

(** {1 KV cache — incremental decoding}

    Per-session, per-layer store of the biased K/V projections of every
    token decoded so far, so step [t] computes only the new token's
    projections and attends against the cache: O(L) bytes moved per token
    instead of the O(L^2) of a full recompute. The full-recompute path
    ({!Decoder.program} run over the whole prefix) stays in-tree as the
    oracle; [attend] is bitwise equal to it at [dropout_p = 0]. *)

type cache

val cache_create : Hparams.t -> cache
val cache_len : cache -> int

(** [cache_append c ~k ~v ~b] pushes slot [b]'s column of a step's biased
    K/V projections (dims [(p,h,b,k=1)] / [(w,h,b,k=1)]). *)
val cache_append : cache -> k:Dense.t -> v:Dense.t -> b:int -> unit

(** [attend hp ~params ~caches x] is one incremental attention step over a
    ragged batch: [x] is the new-token hidden column (dims [(i,b,j=1)]),
    slot [b] of which belongs to [caches.(b)]. Returns
    [(attn_b, new K column, new V column)]; the caller commits the columns
    with {!cache_append} after the whole layer stack succeeds, so an
    aborted step leaves sessions untouched. *)
val attend :
  Hparams.t -> params:(string * Dense.t) list -> caches:cache array
  -> Dense.t -> Dense.t * Dense.t * Dense.t

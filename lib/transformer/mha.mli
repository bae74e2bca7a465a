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
    token decoded so far: a decode step moves O(L) bytes per token instead
    of a full recompute's O(L^2). Decoding runs {!Decoder.program} as
    compiled plans around {!attend} (see {!Model.decode_batch}) and is
    bitwise equal to the full recompute at [dropout_p = 0]. *)

type cache

val cache_create : Hparams.t -> cache
val cache_len : cache -> int

(** [cache_append c ~k ~v ~b] pushes slot [b]'s column of a step's biased
    K/V projections (dims [(p,h,b,k=1)] / [(w,h,b,k=1)]). *)
val cache_append : cache -> k:Dense.t -> v:Dense.t -> b:int -> unit

(** One decode step's cached K/V for [hp.batch] sessions, padded to
    [keys]: the longest cached prefix plus the new token. Every layer of
    the step refills the same [pads]. *)
type pads

val pads : Hparams.t -> keys:int -> pads

(** [attend hp ~pads ~caches ~q ~k ~v] attends the new token's biased
    projections ([qqb]/[kkb]/[vvb], slot [b] paired with [caches.(b)])
    over each session's cached prefix plus the new column and returns
    [gam]: the guarded [flashattn.attend] kernel, or its naive
    masked-softmax chain in naive mode and as the guard's fallback. The
    caches are only read; the caller commits [k]/[v] with {!cache_append}
    once the whole stack has succeeded. *)
val attend :
  Hparams.t -> pads:pads -> caches:cache array -> q:Dense.t -> k:Dense.t
  -> v:Dense.t -> Dense.t

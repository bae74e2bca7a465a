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
    bitwise equal to the full recompute at [dropout_p = 0].

    A cache holds its K and V as the tensors the attention kernel reads
    in place, dims [(p,h,b=1,k=cap)] / [(w,h,b=1,k=cap)], capacity
    doubling. Columns below {!cache_len} are committed; the column at
    [cache_len] belongs to the step in flight; every column above it is
    zero. *)

type cache

val cache_create : Hparams.t -> cache
val cache_len : cache -> int

(** [attend hp ~caches ~q ~k ~v] attends the new token's biased
    projections ([qqb]/[kkb]/[vvb], slot [b] paired with [caches.(b)])
    over each session's cached prefix plus the new column and returns
    [gam]. Per slot it grows the cache at capacity, writes slot [b]'s
    [k]/[v] column at column {!cache_len}, and runs the guarded
    [flashattn.attend] kernel on the cache tensors in place (its naive
    masked-softmax chain in naive mode and as the guard's fallback). No
    committed column changes, so a step that fails here or later leaves
    the session as it was; the next step overwrites the column. The
    caches must be distinct. *)
val attend :
  Hparams.t -> caches:cache array -> q:Dense.t -> k:Dense.t -> v:Dense.t
  -> Dense.t

(** [commit c] makes the column the last {!attend} wrote part of the
    cached prefix. Call it once per layer after the whole stack of a
    step has succeeded. *)
val commit : cache -> unit

(** Einstein-summation tensor contraction over named axes.

    Mirrors the paper's use of [np.einsum] in the SDFG input code, e.g.
    [eval "phi,ibj->phbj" [wq; q]] computes the query projection of
    multi-head attention. Axes shared between inputs but absent from the
    output are summed over. *)

type spec = { operands : Axis.t list list; result : Axis.t list }

(** [parse "phi,ibj->phbj"] splits a single-character-axis spec. Successful
    parses are memoized (specs are re-parsed on every [eval] in hot loops). *)
val parse : string -> spec

val spec_to_string : spec -> string

(** [contract ?scale ?fast inputs ~out] contracts any number of tensors.
    Every output axis must occur in at least one input; axes occurring in
    inputs but not in [out] are reduced. Sizes of equally-named axes must
    agree. [scale] multiplies the result (the paper folds the softmax
    scaling into a contraction this way). The result's storage order is
    [out].

    [fast] (default {!Fastmode.enabled}) selects the backend. The fast path
    memoizes a stride/loop plan per (output axes, input shapes + layouts)
    key and lowers matmul-shaped two-operand contractions (axes splitting
    into batch/m/n/k groups) onto the cache-blocked {!Gemm} kernel, packing
    non-contiguous operands through arena scratch; everything else runs the
    general odometer loop with its plan precomputed. [~fast:false] is the
    naive reference oracle. *)
val contract :
  ?scale:float ->
  ?fast:bool ->
  Dense.t list ->
  out:Axis.t list ->
  Dense.t

(** [eval ?scale ?fast spec_string inputs] checks each input's axis set
    against the spec operand (order-insensitive: layouts are free) and
    contracts. *)
val eval : ?scale:float -> ?fast:bool -> string -> Dense.t list -> Dense.t

(** Drop the memoized parse results and stride/loop plans and reset the
    plan-cache counters (mainly for benchmarks that want cold-cache
    numbers). *)
val clear_caches : unit -> unit

(** {1 Plan-cache accounting}

    The compiled-plan cache is bounded by an LRU cap of 512 plans:
    serving traffic presents one plan per ragged batch geometry, so the
    cache would otherwise grow without limit. *)

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

val cache_stats : unit -> cache_stats

(** {1 Kept only for perfbench}

    No weight image is packed ahead of time: each weight is stored in the
    layout its GEMM reads in place. perfbench still reads these two
    names; the stats are always zero and the clear does nothing. *)

type prepack_stats = { pp_hits : int; pp_builds : int }

val prepack_stats : unit -> prepack_stats
val clear_prepacked : unit -> unit

(** [flops spec ~size] is the number of floating-point operations (2 x the
    loop volume: one multiply and one accumulate) for the contraction when
    axis extents are given by [size]. *)
val flops : spec -> size:(Axis.t -> int) -> int

(** [io_elements spec ~size] is the number of input plus output elements
    touched, the minimum data movement of the contraction. *)
val io_elements : spec -> size:(Axis.t -> int) -> int

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

    The compiled-plan cache is bounded by an LRU cap (default 512 plans):
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

(** [set_plan_cache_capacity n] bounds the plan cache to [n >= 1] entries,
    evicting least-recently-used plans first. *)
val set_plan_cache_capacity : int -> unit

(** {1 Weight prepacking}

    A parameter contracted through a non-direct matrix view (a layout the
    GEMM cannot stream directly, e.g. the decode out-projection
    "whi,whbj->ibj") is normally re-packed into arena scratch on every
    call. [register_prepacked] marks a tensor as long-lived: the packed
    image is built once per view signature on first use and reused —
    bitwise-identical to the per-call pack — until [invalidate_prepacked]
    (called by the optimizer after an in-place weight update) drops the
    images. Registration keys on physical identity of the data array and
    is bounded (FIFO, 1024 tensors). *)

val register_prepacked : Dense.t -> unit
val invalidate_prepacked : Dense.t -> unit

(** Drop every registration and packed image (tests / benches). *)
val clear_prepacked : unit -> unit

(** Disable/enable prepacked-image use globally (default enabled). Off,
    every call packs per call: the reference path the tests compare
    prepacked results against. Registrations are kept. *)
val set_prepack_enabled : bool -> unit

type prepack_stats = {
  pp_registered : int;  (** tensors registered *)
  pp_images : int;  (** packed images currently held *)
  pp_floats : int;  (** floats held by those images *)
  pp_hits : int;  (** contractions served by a prepacked image *)
  pp_builds : int;  (** images built *)
}

val prepack_stats : unit -> prepack_stats

(** [flops spec ~size] is the number of floating-point operations (2 x the
    loop volume: one multiply and one accumulate) for the contraction when
    axis extents are given by [size]. *)
val flops : spec -> size:(Axis.t -> int) -> int

(** [io_elements spec ~size] is the number of input plus output elements
    touched, the minimum data movement of the contraction. *)
val io_elements : spec -> size:(Axis.t -> int) -> int

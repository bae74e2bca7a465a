(** Dense tensors with named axes.

    Values are stored row-major in the order given by the tensor's shape.
    All semantic operations address axes by name, so the result of any
    computation is independent of storage order — storage order only matters
    to the performance model. Arithmetic is 64-bit float; FP16 enters the
    reproduction through the cost model (see {!Half}). *)

type t = { shape : Shape.t; data : float array }

(** {1 Construction} *)

val zeros : (Axis.t * int) list -> t
val full : (Axis.t * int) list -> float -> t
val scalar : float -> t

(** [init dims f] fills the tensor with [f idx] where [idx] pairs each axis
    with its coordinate. *)
val init : (Axis.t * int) list -> ((Axis.t * int) list -> float) -> t

(** [of_flat dims values] interprets [values] row-major in [dims] order. *)
val of_flat : (Axis.t * int) list -> float array -> t

(** [rand prng dims ~lo ~hi] and [randn prng dims ~stddev] fill with uniform
    and gaussian noise respectively. *)
val rand : Prng.t -> (Axis.t * int) list -> lo:float -> hi:float -> t

val randn : Prng.t -> (Axis.t * int) list -> stddev:float -> t
val copy : t -> t

(** {1 Access} *)

val shape : t -> Shape.t
val volume : t -> int
val axes : t -> Axis.t list

(** [get t idx] / [set t idx v] address one element by named coordinates;
    [idx] must bind every axis exactly once (any order). *)
val get : t -> (Axis.t * int) list -> float

val set : t -> (Axis.t * int) list -> float -> unit

(** [iter t f] calls [f idx v] for every element in storage order. *)
val iter : t -> ((Axis.t * int) list -> float -> unit) -> unit

(** {1 Layout} *)

(** [permute t order] returns a tensor with identical semantics but storage
    order [order]; data is physically transposed. *)
val permute : t -> Layout.t -> t

(** [align t other] permutes [t] to the storage order of [other]. *)
val align : t -> t -> t

val layout : t -> Layout.t

(** [rename_axes t pairs] renames axes per [(old, new)] pairs without moving
    data — a pure metadata view. Self-attention uses it to read the same
    input under the query axis [j] and the key axis [k]. *)
val rename_axes : t -> (Axis.t * Axis.t) list -> t

(** {1 Pointwise and broadcast arithmetic} *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val add : t -> t -> t

(** [add_into dst src] is [add dst src] written into [dst]'s storage:
    the same sums, bit for bit, with no new array. *)
val add_into : t -> t -> unit

val sub : t -> t -> t
val mul : t -> t -> t
val scale : float -> t -> t

(** [add_bcast t b] adds [b], whose axes must be a subset of [t]'s,
    broadcasting [b] over the remaining axes (bias addition). *)
val add_bcast : t -> t -> t

val mul_bcast : t -> t -> t

(** {1 Reductions} *)

(** [sum_over t axes] sums out the listed axes. Summing all axes produces a
    rank-0 tensor; see {!item}. *)
val sum_over : t -> Axis.t list -> t

val max_over : t -> Axis.t list -> t
val sum_all : t -> float
val mean_over : t -> Axis.t list -> t

(** [reduce_bcast src dst_axes] sums [src] down to exactly [dst_axes]
    (gradient of a broadcast). *)
val reduce_bcast : t -> Axis.t list -> t

(** [item t] extracts the value of a rank-0 (or one-element) tensor. *)
val item : t -> float

(** {1 Precision} *)

(** [quantize_fp16 t] rounds every element through IEEE binary16 — the
    storage precision of the paper's mixed-precision training. Pairs with
    {!Half}; useful for checking that the workload is numerically stable
    under FP16 activation storage. *)
val quantize_fp16 : t -> t

(** {1 Comparison} *)

val approx_equal : ?rtol:float -> ?atol:float -> t -> t -> bool
val max_abs_diff : t -> t -> float
val pp : Format.formatter -> t -> unit

(** {1 Low-level helpers for kernels}

    [strides_for t loop_axes] gives, for each loop axis, the flat stride of
    that axis in [t] (0 when [t] does not carry the axis) — the basis of the
    einsum and fused-kernel inner loops. *)
val strides_for : t -> Axis.t list -> int array

(** [iter_runs dims strides ~lo ~hi f] walks positions [\[lo, hi)] of the
    row-major index space [dims] one innermost-axis run at a time, calling
    [f k off run] for each: the run covers positions [lo + k] to
    [lo + k + run - 1], and [off] is [sum idx.(d) * strides.(d)] at its
    first position (the next positions step by the innermost stride).
    Kernels put their per-element loop inside [f], so the walk costs one
    call per run and no allocation per element. *)
val iter_runs :
  int array -> int array -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit

val unsafe_data : t -> float array

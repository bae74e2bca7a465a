(** Fused single-pass interpretation of operator groups.

    {!Fusion} decides which operators form one kernel; this module builds
    the kernel body. [compile_group] interprets each member's declarative
    {!Op.sem}: consecutive element-wise members whose outputs feed the next
    member's input become one tiled pass over the data (intermediates that
    nothing else reads are never materialized into the environment), and
    statistical members (softmax, layernorm, their adjoints) run as
    dedicated row-wise kernels drawing per-row scratch from the {!Arena}.

    Numerics follow the naive constructors' exact floating-point operation
    order, so results match the oracle bitwise when operand layouts agree
    and within round-off when a layout permutation reorders an
    accumulation.

    Returns [None] when any member lacks [sem] — the caller should then
    replay members sequentially. Kernels whose runtime shape or layout
    preconditions fail fall back to the member's own naive [run], which is
    always sound because only dead chain intermediates are skipped. *)
val compile_group :
  external_writes:string list -> Op.t list -> (Op.env -> unit) option

(** Element volume from which a row-parallel or element-wise chain region
    shards across the {!Pool} (below it, regions run inline). *)
val par_min_work : int

(** Cache-blocked, register-tiled CPU GEMM kernel.

    [gemm ~a_off ~b_off ~c_off ~m ~n ~k a b c] accumulates
    [C[m][n] += A[m][k] * B[k][n]] where all three matrices are row-major
    slices of flat arrays starting at the given offsets. The offsets are
    required, so a call boxes nothing (an optional offset is a [Some]
    block at every call from another module). The caller is responsible
    for zeroing [c] when plain assignment semantics are wanted. [a], [b]
    and [c] may be one array, provided the C region overlaps neither
    operand's.

    The tiles are one vectorized C kernel (four doubles per vector) that
    loads and stores each C element once per 128-deep k panel: 4x8 tiles
    over the first [n - n mod 8] columns, a 4x4 tile and 1x4 vectors on
    the leftovers, and 8-row tiles whose vector lanes are rows (4x4 blocks
    of A transposed in registers) over the [n mod 4] narrow columns, so a
    decode GEMV ([n < 4]) is vectorized too. Only the rows past the last
    8-row block of the narrow columns run scalar. A call allocates
    nothing.

    Per C element, the k summation runs in strictly increasing order, each
    step a separate multiply and add (the kernel is built without FMA
    contraction), so results agree with a naive sequential-accumulation
    triple loop bitwise — no floating-point reassociation or fusion is
    introduced anywhere.

    Large products run in parallel on the {!Pool} workers by sharding the
    M dimension: each worker owns a disjoint row-block of C and runs the
    unchanged k-ascending panel nest over it, so the parallel result is
    bitwise identical to the serial one (and hence to the naive triple
    loop) at every domain count. It may be called inside a {!Pool}
    worker (as {!Flashattn} does per work item): the nested region then
    runs inline on that worker, with the same result. *)

val gemm :
  a_off:int ->
  b_off:int ->
  c_off:int ->
  m:int ->
  n:int ->
  k:int ->
  float array ->
  float array ->
  float array ->
  unit

val par_min_work : int
(** The m*n*k multiply-add volume (2^18) from which {!gemm} shards its
    rows over the pool. {!Einsum} shards its batch groups from the same
    total volume. *)

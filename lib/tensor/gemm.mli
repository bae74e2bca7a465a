(** Cache-blocked, register-tiled CPU GEMM kernel.

    [gemm ~m ~n ~k a b c] accumulates [C[m][n] += A[m][k] * B[k][n]] where
    all three matrices are row-major slices of flat arrays starting at the
    given offsets (default 0). The caller is responsible for zeroing [c]
    when plain assignment semantics are wanted.

    Every shape runs on register tiles that load and store each C element
    once per k panel: 2x4 tiles over the first [n - n mod 4] columns, and
    8x1 tiles over the leftover columns, so a decode GEMV ([n < 4]) is
    tiled too. Only a few leftover rows per call stream through C.

    Per C element, the k summation runs in strictly increasing order, so
    results agree with a naive sequential-accumulation triple loop bitwise
    — no floating-point reassociation is introduced anywhere.

    Large products run in parallel on the {!Pool} workers by sharding the
    M dimension: each worker owns a disjoint row-block of C and runs the
    unchanged k-ascending panel nest over it, so the parallel result is
    bitwise identical to the serial one (and hence to the naive triple
    loop) at every domain count. It may be called inside a {!Pool}
    worker (as {!Flashattn} does per work item): the nested region then
    runs inline on that worker, with the same result. *)

val gemm :
  ?a_off:int ->
  ?b_off:int ->
  ?c_off:int ->
  m:int ->
  n:int ->
  k:int ->
  float array ->
  float array ->
  float array ->
  unit

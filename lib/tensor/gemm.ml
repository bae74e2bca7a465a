(* Cache-blocked, register-tiled GEMM over flat [float array] storage:
   C[m][n] += A[m][k] * B[k][n], all row-major at the given offsets.

   The tiles are C (gemm_stubs.c), because OCaml 5 emits no SIMD: its
   scalar tiles topped out at 3.5-5.5 GFLOP/s on a 2-vCPU Xeon where the
   vector tiles run at 11-33. Per 128-deep k panel, 4x8 vector tiles
   cover C and the narrow columns n mod 4 (every decode GEMV) run as
   8-row tiles whose vector lanes are rows. Each C element gets c + a*b as
   a separate multiply and add in ascending k (the stubs are built with
   -ffp-contract=off: a fused multiply-add rounds once where the loop
   rounds twice), so every path is bitwise equal to the naive triple
   loop. [gemm_rows] is a [noalloc] external over untagged ints: a flat
   float array is a raw double array, so a call allocates nothing.

   Parallelism shards the M dimension: each Pool worker owns a disjoint
   row-block [i_lo, i_hi) of C and runs the full panel nest over it, so
   per-element k-order is untouched and the parallel result is bitwise
   identical to the serial one. A and B are only read; C row-blocks are
   disjoint; no synchronization is needed inside the kernel. *)

(* Below this m*n*k volume a row-sharded call loses to the inline one.
   Measured with the C tiles at 2 domains on a shared 2-vCPU Xeon: an
   empty region costs about 0.5-0.8 us, but a sharded call pays 5-10 us
   more than half its inline time (worker wake-up, A and C rows pulled into
   the second core's cache). Products of 2^17 and fewer multiply-adds lost
   on every shape timed (e.g. 128x1x128: 6.1-6.3 us sharded against
   2.9-3.6 inline; 64x64x32: 10-17 against 8-12). At 2^18 narrow products
   win (512x1x512: 31-36 against 59-72 us) and the 4x8-tiled ones, which
   run 2.5x faster per flop, break even (64x64x64, 16x512x32: won or lost
   by up to 50% from run to run); by 2^19 those win too. *)
let par_min_work = 1 lsl 18

external gemm_rows :
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  float array ->
  float array ->
  float array ->
  unit = "substation_gemm_rows_byte" "substation_gemm_rows"
[@@noalloc]

let gemm ~a_off ~b_off ~c_off ~m ~n ~k a b c =
  if m >= 2 && m * n * k >= par_min_work && Pool.num_domains () > 1 then
    Pool.parallel_for ~start:0 ~finish:m (fun i_lo i_hi ->
        gemm_rows a_off b_off c_off i_lo i_hi n k a b c)
  else gemm_rows a_off b_off c_off 0 m n k a b c

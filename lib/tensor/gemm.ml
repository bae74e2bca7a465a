(* Cache-blocked, register-tiled GEMM over flat [float array] storage:
   C[m][n] += A[m][k] * B[k][n], all row-major at the given offsets.

   Blocking follows the classic i/j/k tiling: the k dimension is split into
   L1-resident panels and the n dimension into cache-friendly column blocks,
   so each B panel is streamed from cache while a row of A stays in
   registers. The innermost update is unrolled 4x over k, which keeps four
   A values live in registers and quarters the C load/store traffic.

   Accumulation into each C element proceeds in strictly increasing k order
   (blocks are ascending, the 4-term unrolled sum associates left-to-right),
   matching the naive odometer reference summation order.

   Parallelism shards the M dimension: each Pool worker owns a disjoint
   row-block [i_lo, i_hi) of C and runs the full kb/jb panel nest over it,
   so per-element k-order is untouched and the parallel result is bitwise
   identical to the serial one. A and B are only read; C row-blocks are
   disjoint; no synchronization is needed inside the kernel. *)

(* Block shape: a kc-deep k panel by an nc-wide column block. Any
   (kc, nc) yields bitwise-identical C by the ascending-k contract above. *)
let kc = 128
let nc = 512

(* Below this m*n*k volume the dispatch overhead of a parallel region
   outweighs the work. *)
let par_min_work = 8192

let gemm_rows ~a_off ~b_off ~c_off ~i_lo ~i_hi ~n ~k a b c =
  let kb = ref 0 in
  while !kb < k do
    let k_hi = Stdlib.min k (!kb + kc) in
    let jb = ref 0 in
    while !jb < n do
      let j_hi = Stdlib.min n (!jb + nc) in
      let j_lo = !jb in
      for i = i_lo to i_hi - 1 do
        let arow = a_off + (i * k) in
        let crow = c_off + (i * n) in
        let p = ref !kb in
        while !p + 3 < k_hi do
          let q = !p in
          let a0 = Array.unsafe_get a (arow + q)
          and a1 = Array.unsafe_get a (arow + q + 1)
          and a2 = Array.unsafe_get a (arow + q + 2)
          and a3 = Array.unsafe_get a (arow + q + 3) in
          let b0 = b_off + (q * n)
          and b1 = b_off + ((q + 1) * n)
          and b2 = b_off + ((q + 2) * n)
          and b3 = b_off + ((q + 3) * n) in
          for j = j_lo to j_hi - 1 do
            Array.unsafe_set c (crow + j)
              (Array.unsafe_get c (crow + j)
              +. (a0 *. Array.unsafe_get b (b0 + j))
              +. (a1 *. Array.unsafe_get b (b1 + j))
              +. (a2 *. Array.unsafe_get b (b2 + j))
              +. (a3 *. Array.unsafe_get b (b3 + j)))
          done;
          p := q + 4
        done;
        while !p < k_hi do
          let q = !p in
          let aq = Array.unsafe_get a (arow + q) in
          let bq = b_off + (q * n) in
          for j = j_lo to j_hi - 1 do
            Array.unsafe_set c (crow + j)
              (Array.unsafe_get c (crow + j) +. (aq *. Array.unsafe_get b (bq + j)))
          done;
          p := q + 1
        done
      done;
      jb := j_hi
    done;
    kb := k_hi
  done

let gemm ?(a_off = 0) ?(b_off = 0) ?(c_off = 0) ~m ~n ~k a b c =
  if m >= 2 && m * n * k >= par_min_work && Pool.num_domains () > 1 then
    Pool.parallel_for ~start:0 ~finish:m (fun i_lo i_hi ->
        gemm_rows ~a_off ~b_off ~c_off ~i_lo ~i_hi ~n ~k a b c)
  else gemm_rows ~a_off ~b_off ~c_off ~i_lo:0 ~i_hi:m ~n ~k a b c

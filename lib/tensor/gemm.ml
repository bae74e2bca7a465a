(* Cache-blocked, register-tiled GEMM over flat [float array] storage:
   C[m][n] += A[m][k] * B[k][n], all row-major at the given offsets.

   The k dimension is split into kc-deep panels so the slice of B a panel
   reads stays cache-resident while rows of A walk over it. Inside a panel
   the work runs as 2x4 register tiles: eight accumulators hold a 2-row by
   4-column block of C, loaded once and stored once per panel, while the k
   loop feeds them two A values and four B values per step. That replaces
   a C load and store per multiply-add with one per panel, and reads each
   B value once for two rows. A 2x4 tile needs 14 live float registers; a
   4x4 tile would need 24, more than x86-64's 16, and spills.

   What the tile does not cover runs through the row-streaming loop (the
   k loop unrolled 4x, each step sweeping a row of C): the leftover
   columns (n mod 4, which covers every GEMV with n < 4) on the tiled row
   pairs, and a leftover row (odd m, or an odd row shard) over every
   column.

   Accumulation into each C element proceeds in strictly increasing k order
   (panels are ascending, the tile's k loop ascends, the unrolled streaming
   sum associates left-to-right), matching the naive odometer reference
   summation order, so every path is bitwise equal to the triple loop.

   Parallelism shards the M dimension: each Pool worker owns a disjoint
   row-block [i_lo, i_hi) of C and runs the full panel nest over it, so
   per-element k-order is untouched and the parallel result is bitwise
   identical to the serial one. A and B are only read; C row-blocks are
   disjoint; no synchronization is needed inside the kernel. *)

(* Panel depth. Any kc yields bitwise-identical C by the ascending-k
   contract above. *)
let kc = 128

(* Below this m*n*k volume the dispatch overhead of a parallel region
   outweighs the work. *)
let par_min_work = 8192

(* Rows [i_lo, i_hi) x columns [j_lo, j_hi) of C over the k panel
   [p_lo, p_hi), one row of C swept per (unrolled) k step. *)
let stream_rows ~a_off ~b_off ~c_off ~n ~k ~p_lo ~p_hi ~i_lo ~i_hi ~j_lo ~j_hi
    a b c =
  for i = i_lo to i_hi - 1 do
    let arow = a_off + (i * k) in
    let crow = c_off + (i * n) in
    let p = ref p_lo in
    while !p + 3 < p_hi do
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
    while !p < p_hi do
      let q = !p in
      let aq = Array.unsafe_get a (arow + q) in
      let bq = b_off + (q * n) in
      for j = j_lo to j_hi - 1 do
        Array.unsafe_set c (crow + j)
          (Array.unsafe_get c (crow + j) +. (aq *. Array.unsafe_get b (bq + j)))
      done;
      p := q + 1
    done
  done

let gemm_rows ~a_off ~b_off ~c_off ~i_lo ~i_hi ~n ~k (a : float array)
    (b : float array) (c : float array) =
  let n4 = n - (n land 3) in
  let i2 = i_hi - ((i_hi - i_lo) land 1) in
  let kb = ref 0 in
  while !kb < k do
    let p_lo = !kb in
    let p_hi = Int.min k (p_lo + kc) in
    let i = ref i_lo in
    while !i < i2 do
      let i0 = !i in
      let arow0 = a_off + (i0 * k) in
      let crow0 = c_off + (i0 * n) in
      let crow1 = crow0 + n in
      let j = ref 0 in
      while !j < n4 do
        let j0 = !j in
        let c00 = ref (Array.unsafe_get c (crow0 + j0))
        and c01 = ref (Array.unsafe_get c (crow0 + j0 + 1))
        and c02 = ref (Array.unsafe_get c (crow0 + j0 + 2))
        and c03 = ref (Array.unsafe_get c (crow0 + j0 + 3))
        and c10 = ref (Array.unsafe_get c (crow1 + j0))
        and c11 = ref (Array.unsafe_get c (crow1 + j0 + 1))
        and c12 = ref (Array.unsafe_get c (crow1 + j0 + 2))
        and c13 = ref (Array.unsafe_get c (crow1 + j0 + 3)) in
        let ap = ref (arow0 + p_lo) and bp = ref (b_off + (p_lo * n) + j0) in
        let ap_hi = arow0 + p_hi in
        while !ap < ap_hi do
          let q = !ap and r = !bp in
          let a0 = Array.unsafe_get a q and a1 = Array.unsafe_get a (q + k) in
          let b0 = Array.unsafe_get b r
          and b1 = Array.unsafe_get b (r + 1)
          and b2 = Array.unsafe_get b (r + 2)
          and b3 = Array.unsafe_get b (r + 3) in
          c00 := !c00 +. (a0 *. b0);
          c01 := !c01 +. (a0 *. b1);
          c02 := !c02 +. (a0 *. b2);
          c03 := !c03 +. (a0 *. b3);
          c10 := !c10 +. (a1 *. b0);
          c11 := !c11 +. (a1 *. b1);
          c12 := !c12 +. (a1 *. b2);
          c13 := !c13 +. (a1 *. b3);
          ap := q + 1;
          bp := r + n
        done;
        Array.unsafe_set c (crow0 + j0) !c00;
        Array.unsafe_set c (crow0 + j0 + 1) !c01;
        Array.unsafe_set c (crow0 + j0 + 2) !c02;
        Array.unsafe_set c (crow0 + j0 + 3) !c03;
        Array.unsafe_set c (crow1 + j0) !c10;
        Array.unsafe_set c (crow1 + j0 + 1) !c11;
        Array.unsafe_set c (crow1 + j0 + 2) !c12;
        Array.unsafe_set c (crow1 + j0 + 3) !c13;
        j := j0 + 4
      done;
      i := i0 + 2
    done;
    if n4 < n then
      stream_rows ~a_off ~b_off ~c_off ~n ~k ~p_lo ~p_hi ~i_lo ~i_hi:i2
        ~j_lo:n4 ~j_hi:n a b c;
    if i2 < i_hi then
      stream_rows ~a_off ~b_off ~c_off ~n ~k ~p_lo ~p_hi ~i_lo:i2 ~i_hi
        ~j_lo:0 ~j_hi:n a b c;
    kb := p_hi
  done

let gemm ?(a_off = 0) ?(b_off = 0) ?(c_off = 0) ~m ~n ~k a b c =
  if m >= 2 && m * n * k >= par_min_work && Pool.num_domains () > 1 then
    Pool.parallel_for ~start:0 ~finish:m (fun i_lo i_hi ->
        gemm_rows ~a_off ~b_off ~c_off ~i_lo ~i_hi ~n ~k a b c)
  else gemm_rows ~a_off ~b_off ~c_off ~i_lo:0 ~i_hi:m ~n ~k a b c

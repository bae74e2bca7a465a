(* Streaming tiled attention (see flashattn.mli for the contract).

   Operation-order discipline: the naive oracle is the encoder's
   qkt -> softmax(+causal/pad mask) -> dropout -> gamma chain, whose fast
   kernels in turn replicate the naive constructors bitwise. Both
   directions walk blocks of [block_rows] Q rows and run every
   contraction as a {!Gemm.gemm} into a zeroed C, which sums each element
   in ascending k from 0.0: the order of the naive einsum. Per block —

     S        = Q_blk . K^T                  (ascending p)
     score    = prescale *. S  [+. 0.0 under a mask]
     max      = Float.max fold, ascending k
     exp      = Fmath.exp (score +. (-1.0 *. max))
     sum      = ascending-k fold from 0.0
     alpha    = (exp *. (1.0 /. sum)) [*. maskv]
     O_blk    = alpha . V                    (ascending k)

   and the backward, which recomputes y (alpha before the mask) with the
   same recipe —

     dA       = dO_blk . V^T                 (ascending w)
     dy       = dA *. maskv,  rs = ascending-k fold of (dy *. y)
     dS       = prescale *. (y *. (dy +. (-1.0 *. rs)))
     dQ_blk^T = K^T . dS^T                   (ascending k)
     dK      += dS^T . Q_blk                 (ascending j)
     dV      += (y *. maskv)^T . dO_blk      (ascending j)

   — so the forward is bitwise equal to the oracle, and the backward feeds
   the oracle's softmax_dx the oracle's own values. dK and dV carry
   across blocks, so their sums run over all rows in ascending j.
   Products commute, so the operand order inside a GEMM product does not
   matter.

   The per-score steps between the GEMMs (score to alpha forward; y, dy,
   rs, dS and y *. maskv backward) are C row kernels (elt_stubs.c:
   [fwd_row], [bwd_row]) built without FMA contraction, with the same
   operations in the same order: the exp is the library's one
   ({!Fmath.exp}'s 4-lane form, bitwise its scalar form, which the naive
   softmax calls), the mask elements are {!Prng.keep_fill}'s draws, and
   the max fold runs in vector lanes only where that cannot change its
   result. The backward kernel leaves dS and y *. maskv row-major, and
   one transpose per block writes the [k][r] panels the dQ/dK/dV products
   read.

   A block reads the key prefix of its last row ([kmax] is nondecreasing
   in j). A row whose own prefix is shorter (under a causal mask) gets
   alpha, dS and y *. maskv of 0.0 past it; adding an exact zero to an
   accumulator that starts at +0.0 changes no bit. Keys past the block's
   prefix are skipped rather than computed: a masked key contributes
   exp(-inf + nm) = 0.0 to an ascending sum of non-negatives and leaves a
   Float.max fold unchanged, so skipping preserves every bit. *)

type dropout = {
  p : float;
  seed : int64;
  key : string;
  dims : (Axis.t * int) list;
}

(* ------------------------------------------------------------------ *)
(* Shared geometry                                                     *)
(* ------------------------------------------------------------------ *)

type geom = {
  np : int;  (* p: query/key feature extent *)
  nw : int;  (* w: value feature extent *)
  nh : int;
  nb : int;
  nj : int;
  nk : int;
  qd : float array;  (* data *)
  kd : float array;
  vd : float array;
  qs : int array;  (* strides for [p; h; b; j] *)
  ks : int array;  (* strides for [p; h; b; k] *)
  vs : int array;  (* strides for [w; h; b; k] *)
  masking : bool;  (* causal or ragged: unmasked scores get [+. 0.0] *)
  causal : bool;
  valid : int array option;
  prescale : float;
  (* dropout, pre-resolved: base splitmix64 state and the keep scale *)
  drop_p : float;  (* 0.0 = off *)
  drop_state : int64;
  drop_scale : float;
}

let extent t ax =
  match Shape.size (Dense.shape t) ax with
  | n -> n
  | exception Not_found ->
      invalid_arg
        ("Flashattn: tensor is missing axis " ^ ax ^ " (layout "
        ^ String.concat "," (Dense.axes t)
        ^ ")")

let check_drop_dims d ~nh ~nb ~nj ~nk =
  let expect = [ ("h", nh); ("b", nb); ("j", nj); ("k", nk) ] in
  let ok =
    List.length d.dims = 4
    && List.for_all2
         (fun (a, n) (a', n') -> Axis.equal a a' && n = n')
         d.dims expect
  in
  if not ok then
    invalid_arg
      "Flashattn: dropout dims must be (heads, batch, q_seq, k_seq) with \
       full extents"

let geom_of ?causal ?valid ?dropout ~prescale ~q ~k ~v () =
  let np = extent q "p" in
  let nh = extent q "h" in
  let nb = extent q "b" in
  let nj = extent q "j" in
  let nk = extent k "k" in
  let nw = extent v "w" in
  if extent k "p" <> np || extent k "h" <> nh || extent k "b" <> nb then
    invalid_arg "Flashattn: k is not shaped (feat_qk, heads, batch, k_seq)";
  if extent v "k" <> nk || extent v "h" <> nh || extent v "b" <> nb then
    invalid_arg "Flashattn: v is not shaped (feat_v, heads, batch, k_seq)";
  (match valid with
  | Some a when Array.length a <> nb ->
      invalid_arg "Flashattn: valid must have one entry per batch slot"
  | _ -> ());
  let causal = Option.value causal ~default:false in
  (* p = 0 keeps every element at scale 1/(1-0) = 1: multiplying by 1.0
     is exact, so the kernel skips the mask stream entirely — bitwise
     what the naive chain computes through its all-ones mask. *)
  let dropout =
    match dropout with Some d when d.p > 0.0 -> Some d | _ -> None
  in
  (match dropout with
  | Some d -> check_drop_dims d ~nh ~nb ~nj ~nk
  | None -> ());
  {
    np;
    nw;
    nh;
    nb;
    nj;
    nk;
    qd = Dense.unsafe_data q;
    kd = Dense.unsafe_data k;
    vd = Dense.unsafe_data v;
    qs = Dense.strides_for q [ "p"; "h"; "b"; "j" ];
    ks = Dense.strides_for k [ "p"; "h"; "b"; "k" ];
    vs = Dense.strides_for v [ "w"; "h"; "b"; "k" ];
    masking = causal || valid <> None;
    causal;
    valid;
    prescale;
    drop_p = (match dropout with Some d -> d.p | None -> 0.0);
    drop_state =
      (match dropout with
      | Some d -> Prng.state (Prng.of_key d.seed d.key)
      | None -> 0L);
    drop_scale =
      (match dropout with Some d -> 1.0 /. (1.0 -. d.p) | None -> 1.0);
  }

(* Valid key range for row [jj] of slot [b]: [0, kmax). *)
let kmax_of g ~b ~jj =
  let m = match g.valid with Some a -> min g.nk a.(b) | None -> g.nk in
  if g.causal then min m (jj + 1) else m

(* Q rows per block: the m of the block's score and gradient GEMMs. *)
let block_rows = 16

(* Pack sequence positions [lo, lo + n) of (h, b) into a [pos][feat]
   panel at [dst.(at)]: a Q or dO block, or the K/V panel a GEMM reads
   as B. *)
let pack_rows (data : float array) (str : int array) ~h ~b ~lo ~n ~nf
    (dst : float array) ~at =
  let base = (h * str.(1)) + (b * str.(2)) in
  let sf = str.(0) and sk = str.(3) in
  for r = 0 to n - 1 do
    let src = base + ((lo + r) * sk) and row = at + (r * nf) in
    for f = 0 to nf - 1 do
      Array.unsafe_set dst (row + f) (Array.unsafe_get data (src + (f * sf)))
    done
  done

(* Pack sequence positions [0, n) of (h, b) into a [feat][pos] panel of
   row stride n at [dst.(at)]: K^T or V^T, the B operand of a product
   over features. *)
let pack_cols (data : float array) (str : int array) ~h ~b ~n ~nf
    (dst : float array) ~at =
  let base = (h * str.(1)) + (b * str.(2)) in
  let sf = str.(0) and sk = str.(3) in
  for f = 0 to nf - 1 do
    let src = base + (f * sf) and row = at + (f * n) in
    for kk = 0 to n - 1 do
      Array.unsafe_set dst (row + kk) (Array.unsafe_get data (src + (kk * sk)))
    done
  done

(* Write a block of scratch, position r and feature f at
   [src.(at + r * rs + f * fs)], to positions [lo, lo + n) of (h, b) in
   an output laid out (feat, heads, batch, seq) with [ns] positions.
   Each work item owns the positions it writes. *)
let unpack g (dst : float array) ~ns ~h ~b ~lo ~n ~nf (src : float array)
    ~at ~rs ~fs =
  let step = g.nh * g.nb * ns and base = (((h * g.nb) + b) * ns) + lo in
  for f = 0 to nf - 1 do
    for r = 0 to n - 1 do
      Array.unsafe_set dst (base + r + (f * step))
        (Array.unsafe_get src (at + (r * rs) + (f * fs)))
    done
  done

(* The per-score rows (elt_stubs.c). [fwd_row buf off km prescale masking
   state e0 p scale] turns the raw dots [buf.(off) .. buf.(off + km - 1)]
   of one row into probabilities in place — prescale (+. 0.0 under a
   mask), Float.max fold, exp, ascending sum, normalize — each times its
   mask element (draws e0, e0 + 1, ...) when p > 0. [bwd_row buf yo dyo km
   n ...] recomputes the row's y at yo the same way, turns its dA at dyo
   into dy = dA *. m, folds rs ascending, then leaves dS at dyo and
   y *. m at yo, with zeros for the keys [km, n). [transpose buf src dst
   rows cols] writes the rows x cols panel at src as its transpose at
   dst. *)
external fwd_row :
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  bool ->
  (int64[@unboxed]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  unit = "substation_attn_fwd_row_byte" "substation_attn_fwd_row"
[@@noalloc]

external bwd_row :
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  bool ->
  (int64[@unboxed]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  unit = "substation_attn_bwd_row_byte" "substation_attn_bwd_row"
[@@noalloc]

external transpose :
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "substation_transpose_byte" "substation_transpose"
[@@noalloc]

(* Flat position of (h, b, jj, 0) in the (h, b, j, k) dropout stream. *)
let stream_row g ~h ~b ~jj = ((((h * g.nb) + b) * g.nj) + jj) * g.nk

(* Threshold below which parallel dispatch costs more than the work. *)
let par_min_flop = 4096

(* Run [item] over [0, work): on the Pool workers when there are several
   items and enough flop, else inline, where each GEMM may shard its own
   rows (a GEMM inside a worker runs inline). *)
let run_items g ~label ~work item =
  let flops = g.nj * g.nk * (g.np + g.nw) in
  if work >= 2 && flops >= par_min_flop && Pool.num_domains () > 1 then
    Pool.parallel_for ~label ~start:0 ~finish:work (fun lo hi ->
        for it = lo to hi - 1 do
          item it
        done)
  else
    for it = 0 to work - 1 do
      item it
    done

(* ------------------------------------------------------------------ *)
(* Forward                                                             *)
(* ------------------------------------------------------------------ *)

(* One (h, b, Q-tile) work item: row blocks of the tile against packed
   K^T/V panels, all in one scratch borrow. Rows with no valid key keep
   the output's zeros. *)
let fwd_item g ~od ~h ~b ~qlo ~qhi =
  let nt = kmax_of g ~b ~jj:(qhi - 1) in
  if nt > 0 then begin
    let np = g.np and nw = g.nw and rows = min block_rows (qhi - qlo) in
    (* scratch offsets: K^T [p][k], V [k][w], then the block's
       Q [r][p], scores/alpha [r][k] and context [r][w] *)
    let kt = 0 and vp = np * nt in
    let qb = vp + (nt * nw) in
    let sb = qb + (rows * np) in
    let ob = sb + (rows * nt) in
    Arena.with_scratch Arena.global (ob + (rows * nw)) @@ fun buf ->
    pack_rows g.vd g.vs ~h ~b ~lo:0 ~n:nt ~nf:nw buf ~at:vp;
    (* K^T's row stride is the block's key count: repack when it changes
       (every block under a causal mask, never otherwise) *)
    let packed = ref 0 in
    let lo = ref qlo in
    while !lo < qhi do
      let j0 = !lo in
      let jn = min block_rows (qhi - j0) in
      let n = kmax_of g ~b ~jj:(j0 + jn - 1) in
      if n <> !packed then begin
        pack_cols g.kd g.ks ~h ~b ~n ~nf:np buf ~at:kt;
        packed := n
      end;
      pack_rows g.qd g.qs ~h ~b ~lo:j0 ~n:jn ~nf:np buf ~at:qb;
      Array.fill buf sb (jn * n) 0.0;
      Gemm.gemm ~a_off:qb ~b_off:kt ~c_off:sb ~m:jn ~n ~k:np buf buf buf;
      for r = 0 to jn - 1 do
        let km = kmax_of g ~b ~jj:(j0 + r) and off = sb + (r * n) in
        fwd_row buf off km g.prescale g.masking g.drop_state
          (stream_row g ~h ~b ~jj:(j0 + r))
          g.drop_p g.drop_scale;
        Array.fill buf (off + km) (n - km) 0.0
      done;
      Array.fill buf ob (jn * nw) 0.0;
      Gemm.gemm ~a_off:sb ~b_off:vp ~c_off:ob ~m:jn ~n:nw ~k:n buf buf buf;
      unpack g od ~ns:g.nj ~h ~b ~lo:j0 ~n:jn ~nf:nw buf ~at:ob ~rs:nw ~fs:1;
      lo := j0 + jn
    done
  end

(* Q rows per forward work item: the parallel sharding unit. *)
let q_tile = 32

let forward ?causal ?valid ?dropout ~prescale ~q ~k ~v () =
  let g = geom_of ?causal ?valid ?dropout ~prescale ~q ~k ~v () in
  let out = Dense.zeros [ ("w", g.nw); ("h", g.nh); ("b", g.nb); ("j", g.nj) ] in
  let od = Dense.unsafe_data out in
  let nq_tiles = (g.nj + q_tile - 1) / q_tile in
  run_items g ~label:"flashattn.fwd" ~work:(g.nh * g.nb * nq_tiles) (fun it ->
      let qi = it mod nq_tiles in
      let hb = it / nq_tiles in
      let qlo = qi * q_tile in
      fwd_item g ~od ~h:(hb / g.nb) ~b:(hb mod g.nb) ~qlo
        ~qhi:(min (qlo + q_tile) g.nj));
  out

(* ------------------------------------------------------------------ *)
(* Backward                                                            *)
(* ------------------------------------------------------------------ *)

(* One (h, b) work item: row blocks against packed K, K^T and V^T panels,
   recomputing scores and probabilities. Scratch is O(L * d), one borrow:
   the panels, the dK/dV accumulators, and four block-by-key buffers (y
   and dS by row, dS^T and (y *. maskv)^T by key). Items own disjoint
   (h, b) slabs, so sharding is bitwise. *)
let bwd_item g ~dgd ~dgs ~dqd ~dkd ~dvd ~h ~b =
  (* widest key range any row of this slot touches *)
  let nk = kmax_of g ~b ~jj:(g.nj - 1) in
  if nk > 0 then begin
    let np = g.np and nw = g.nw and rows = min block_rows g.nj in
    (* scratch offsets: panels K^T [p][k], V^T [w][k]; accumulators
       dK [k][p], dV [k][w]; the block's Q [r][p], dO [r][w], y [r][k],
       dy [r][k], dS^T [k][r], (y *. maskv)^T [k][r] and dQ^T [p][r] *)
    let kt = 0 and vt = np * nk in
    let dk = vt + (nw * nk) in
    let dv = dk + (nk * np) in
    let qb = dv + (nk * nw) in
    let gb = qb + (rows * np) in
    let yb = gb + (rows * nw) in
    let db = yb + (rows * nk) in
    let dst = db + (rows * nk) in
    let ymt = dst + (nk * rows) in
    let dqt = ymt + (nk * rows) in
    Arena.with_scratch Arena.global (dqt + (np * rows)) @@ fun buf ->
    Array.fill buf dk (nk * (np + nw)) 0.0;
    let packed = ref 0 in
    let lo = ref 0 in
    while !lo < g.nj do
      let j0 = !lo in
      let jn = min block_rows (g.nj - j0) in
      let n = kmax_of g ~b ~jj:(j0 + jn - 1) in
      if n <> !packed then begin
        pack_cols g.kd g.ks ~h ~b ~n ~nf:np buf ~at:kt;
        pack_cols g.vd g.vs ~h ~b ~n ~nf:nw buf ~at:vt;
        packed := n
      end;
      pack_rows g.qd g.qs ~h ~b ~lo:j0 ~n:jn ~nf:np buf ~at:qb;
      pack_rows dgd dgs ~h ~b ~lo:j0 ~n:jn ~nf:nw buf ~at:gb;
      Array.fill buf yb (jn * n) 0.0;
      Gemm.gemm ~a_off:qb ~b_off:kt ~c_off:yb ~m:jn ~n ~k:np buf buf buf;
      Array.fill buf db (jn * n) 0.0;
      Gemm.gemm ~a_off:gb ~b_off:vt ~c_off:db ~m:jn ~n ~k:nw buf buf buf;
      (* per row: y, dropout_dx, then softmax_dx; dS and y *. maskv are
         then transposed for the dQ/dK/dV products *)
      for r = 0 to jn - 1 do
        let km = kmax_of g ~b ~jj:(j0 + r) and off = r * n in
        bwd_row buf (yb + off) (db + off) km n g.prescale g.masking
          g.drop_state
          (stream_row g ~h ~b ~jj:(j0 + r))
          g.drop_p g.drop_scale
      done;
      transpose buf db dst jn n;
      transpose buf yb ymt jn n;
      Array.fill buf dqt (np * jn) 0.0;
      Gemm.gemm ~a_off:kt ~b_off:dst ~c_off:dqt ~m:np ~n:jn ~k:n buf buf buf;
      Gemm.gemm ~a_off:dst ~b_off:qb ~c_off:dk ~m:n ~n:np ~k:jn buf buf buf;
      Gemm.gemm ~a_off:ymt ~b_off:gb ~c_off:dv ~m:n ~n:nw ~k:jn buf buf buf;
      unpack g dqd ~ns:g.nj ~h ~b ~lo:j0 ~n:jn ~nf:np buf ~at:dqt ~rs:1 ~fs:jn;
      lo := j0 + jn
    done;
    unpack g dkd ~ns:g.nk ~h ~b ~lo:0 ~n:nk ~nf:np buf ~at:dk ~rs:np ~fs:1;
    unpack g dvd ~ns:g.nk ~h ~b ~lo:0 ~n:nk ~nf:nw buf ~at:dv ~rs:nw ~fs:1
  end

let backward ?causal ?valid ?dropout ~prescale ~q ~k ~v ~d_out () =
  let g = geom_of ?causal ?valid ?dropout ~prescale ~q ~k ~v () in
  if extent d_out "w" <> g.nw || extent d_out "j" <> g.nj then
    invalid_arg "Flashattn.backward: d_out is not shaped like the context";
  let dq = Dense.zeros [ ("p", g.np); ("h", g.nh); ("b", g.nb); ("j", g.nj) ] in
  let dk = Dense.zeros [ ("p", g.np); ("h", g.nh); ("b", g.nb); ("k", g.nk) ] in
  let dv = Dense.zeros [ ("w", g.nw); ("h", g.nh); ("b", g.nb); ("k", g.nk) ] in
  let dgd = Dense.unsafe_data d_out in
  let dgs = Dense.strides_for d_out [ "w"; "h"; "b"; "j" ] in
  let dqd = Dense.unsafe_data dq in
  let dkd = Dense.unsafe_data dk in
  let dvd = Dense.unsafe_data dv in
  run_items g ~label:"flashattn.bwd" ~work:(g.nh * g.nb) (fun it ->
      bwd_item g ~dgd ~dgs ~dqd ~dkd ~dvd ~h:(it / g.nb) ~b:(it mod g.nb));
  (dq, dk, dv)

(* Streaming tiled attention (see flashattn.mli for the contract).

   Operation-order discipline: the naive oracle is the encoder's
   qkt -> softmax(+causal/pad mask) -> dropout -> gamma chain, whose fast
   kernels in turn replicate the naive constructors bitwise. Every path
   here follows the same floating-point recipe —

     score   = prescale *. (ascending-p dot from 0.0)  [+. 0.0 under a mask]
     max     = Float.max fold, ascending k
     exp     = exp (score +. (-1.0 *. max))
     sum     = ascending-k fold from 0.0
     alpha   = (exp *. (1.0 /. sum)) [*. maskv]
     context = ascending-k fold of (v *. alpha) from 0.0

   — so the forward is bitwise equal to the oracle, and the backward,
   which recomputes each row's probabilities with the same recipe, feeds
   the oracle's softmax_dx the oracle's own values. Masked-out positions
   are skipped rather than computed: they contribute exp(-inf + nm) = 0.0
   to an ascending sum of non-negatives and leave a Float.max fold
   unchanged, so skipping preserves every bit. *)

type axes = {
  feat_qk : Axis.t;
  feat_v : Axis.t;
  heads : Axis.t;
  batch : Axis.t;
  q_seq : Axis.t;
  k_seq : Axis.t;
}

let paper_axes =
  { feat_qk = "p"; feat_v = "w"; heads = "h"; batch = "b"; q_seq = "j";
    k_seq = "k" }

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
  np : int;  (* feat_qk extent *)
  nw : int;  (* feat_v extent *)
  nh : int;
  nb : int;
  nj : int;
  nk : int;
  qd : float array;  (* data *)
  kd : float array;
  vd : float array;
  qs : int array;  (* strides for [feat_qk; heads; batch; q_seq] *)
  ks : int array;  (* strides for [feat_qk; heads; batch; k_seq] *)
  vs : int array;  (* strides for [feat_v; heads; batch; k_seq] *)
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
  let rec go = function
    | [] ->
        invalid_arg
          ("Flashattn: tensor is missing axis " ^ ax ^ " (layout "
          ^ String.concat "," (Dense.axes t)
          ^ ")")
    | (a, n) :: rest -> if Axis.equal a ax then n else go rest
  in
  go (Shape.to_list (Dense.shape t))

let check_drop_dims axes d ~nh ~nb ~nj ~nk =
  let expect =
    [ (axes.heads, nh); (axes.batch, nb); (axes.q_seq, nj); (axes.k_seq, nk) ]
  in
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

let geom_of ?(axes = paper_axes) ?causal ?valid ?dropout ~prescale ~q ~k ~v ()
    =
  let np = extent q axes.feat_qk in
  let nh = extent q axes.heads in
  let nb = extent q axes.batch in
  let nj = extent q axes.q_seq in
  let nk = extent k axes.k_seq in
  let nw = extent v axes.feat_v in
  if extent k axes.feat_qk <> np || extent k axes.heads <> nh
     || extent k axes.batch <> nb then
    invalid_arg "Flashattn: k is not shaped (feat_qk, heads, batch, k_seq)";
  if extent v axes.k_seq <> nk || extent v axes.heads <> nh
     || extent v axes.batch <> nb then
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
  | Some d -> check_drop_dims axes d ~nh ~nb ~nj ~nk
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
    qs = Dense.strides_for q [ axes.feat_qk; axes.heads; axes.batch; axes.q_seq ];
    ks = Dense.strides_for k [ axes.feat_qk; axes.heads; axes.batch; axes.k_seq ];
    vs = Dense.strides_for v [ axes.feat_v; axes.heads; axes.batch; axes.k_seq ];
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

(* Mask element for flat position [e] of the (h, b, j, k) stream: the
   value [Elementwise.dropout_mask] stores there. *)
let mask_at g e = Prng.keep_at g.drop_state e ~p:g.drop_p ~scale:g.drop_scale

(* Valid key range for row [jj] of slot [b]: [0, kmax). *)
let kmax_of g ~b ~jj =
  let m = match g.valid with Some a -> min g.nk a.(b) | None -> g.nk in
  if g.causal then min m (jj + 1) else m

(* Pack K/V columns [0, n) of (h, b) into contiguous [col][feat] panels:
   the kernel's cache-resident working set. *)
let pack_panel data (str : int array) ~h ~b ~n ~nf dst =
  let base = (h * str.(1)) + (b * str.(2)) in
  let sf = str.(0) and sk = str.(3) in
  for kk = 0 to n - 1 do
    let src = base + (kk * sk) in
    let row = kk * nf in
    for f = 0 to nf - 1 do
      Array.unsafe_set dst (row + f) (Array.unsafe_get data (src + (f * sf)))
    done
  done

(* Threshold below which parallel dispatch costs more than the work. *)
let par_min_flop = 4096

(* ------------------------------------------------------------------ *)
(* Forward                                                             *)
(* ------------------------------------------------------------------ *)

(* Rows per register block: scores and V-products for [row_block]
   consecutive Q rows are computed against each packed K/V column load,
   turning the panel traversals into 1-load / 4-FMA loops (GEMM-style
   register blocking applied to the streaming passes). Per-row operation
   order is unchanged and additions sharing a destination keep ascending
   row order, so blocked runs stay bitwise identical to row-at-a-time. *)
let row_block = 4

(* One (h, b, Q-tile) work item: each row against its whole unmasked
   key prefix, normalized per element before the V products — bitwise the
   naive chain. Rows with no valid key keep the output's zeros. *)
let fwd_item g ~od ~h ~b ~qlo ~qhi =
  let kmax_tile = kmax_of g ~b ~jj:(qhi - 1) in
  if kmax_tile > 0 then
    Arena.with_scratch Arena.global (kmax_tile * g.np) (fun kp ->
    Arena.with_scratch Arena.global (kmax_tile * g.nw) (fun vp ->
    Arena.with_scratch Arena.global (row_block * kmax_tile) (fun sb ->
    Arena.with_scratch Arena.global (row_block * g.np) (fun qb ->
    Arena.with_scratch Arena.global (row_block * g.nw) (fun ob ->
        pack_panel g.kd g.ks ~h ~b ~n:kmax_tile ~nf:g.np kp;
        pack_panel g.vd g.vs ~h ~b ~n:kmax_tile ~nf:g.nw vp;
        let np = g.np and nw = g.nw in
        let nkt = kmax_tile in
        let km = Array.make row_block 0 in
        let ostep = g.nh * g.nb * g.nj in
        let sp = g.qs.(0) in
        let j0 = ref qlo in
        while !j0 < qhi do
          let j0v = !j0 in
          let jn = min row_block (qhi - j0v) in
          for r = 0 to jn - 1 do
            let jj = j0v + r in
            km.(r) <- kmax_of g ~b ~jj;
            let qbase = (h * g.qs.(1)) + (b * g.qs.(2)) + (jj * g.qs.(3)) in
            for p = 0 to np - 1 do
              Array.unsafe_set qb ((r * np) + p)
                (Array.unsafe_get g.qd (qbase + (p * sp)))
            done
          done;
          (* [kmax] is nondecreasing in j, so row 0's range is the
             block's common prefix; causal tails replay per row. *)
          let common = if jn = row_block then km.(0) else 0 in
          (* scores (ascending-p dots, prescale, the oracle's +. 0.0) *)
          if common > 0 then
            for kk = 0 to common - 1 do
              let row = kk * np in
              let a0 = ref 0.0 and a1 = ref 0.0 in
              let a2 = ref 0.0 and a3 = ref 0.0 in
              for p = 0 to np - 1 do
                let kv = Array.unsafe_get kp (row + p) in
                a0 := !a0 +. (kv *. Array.unsafe_get qb p);
                a1 := !a1 +. (kv *. Array.unsafe_get qb (np + p));
                a2 := !a2 +. (kv *. Array.unsafe_get qb ((2 * np) + p));
                a3 := !a3 +. (kv *. Array.unsafe_get qb ((3 * np) + p))
              done;
              let s0 = g.prescale *. !a0 and s1 = g.prescale *. !a1 in
              let s2 = g.prescale *. !a2 and s3 = g.prescale *. !a3 in
              if g.masking then begin
                Array.unsafe_set sb kk (s0 +. 0.0);
                Array.unsafe_set sb (nkt + kk) (s1 +. 0.0);
                Array.unsafe_set sb ((2 * nkt) + kk) (s2 +. 0.0);
                Array.unsafe_set sb ((3 * nkt) + kk) (s3 +. 0.0)
              end
              else begin
                Array.unsafe_set sb kk s0;
                Array.unsafe_set sb (nkt + kk) s1;
                Array.unsafe_set sb ((2 * nkt) + kk) s2;
                Array.unsafe_set sb ((3 * nkt) + kk) s3
              end
            done;
          for r = 0 to jn - 1 do
            let qrow = r * np and srow = r * nkt in
            for kk = common to km.(r) - 1 do
              let row = kk * np in
              let acc = ref 0.0 in
              for p = 0 to np - 1 do
                acc :=
                  !acc
                  +. (Array.unsafe_get kp (row + p)
                     *. Array.unsafe_get qb (qrow + p))
              done;
              let s = g.prescale *. !acc in
              Array.unsafe_set sb (srow + kk)
                (if g.masking then s +. 0.0 else s)
            done
          done;
          (* per-row softmax (max, exp, sum, normalize) and dropout:
             scores become probabilities in place *)
          for r = 0 to jn - 1 do
            let kmr = km.(r) in
            let jj = j0v + r in
            if kmr > 0 then begin
              let srow = r * nkt in
              let mx = ref neg_infinity in
              for kk = 0 to kmr - 1 do
                mx := Float.max !mx (Array.unsafe_get sb (srow + kk))
              done;
              let nm = -1.0 *. !mx in
              let s = ref 0.0 in
              for kk = 0 to kmr - 1 do
                let ev = exp (Array.unsafe_get sb (srow + kk) +. nm) in
                Array.unsafe_set sb (srow + kk) ev;
                s := !s +. ev
              done;
              let inv = 1.0 /. !s in
              let ebase = ((((h * g.nb) + b) * g.nj) + jj) * g.nk in
              for kk = 0 to kmr - 1 do
                let alpha = Array.unsafe_get sb (srow + kk) *. inv in
                let alpha =
                  if g.drop_p > 0.0 then alpha *. mask_at g (ebase + kk)
                  else alpha
                in
                Array.unsafe_set sb (srow + kk) alpha
              done
            end
          done;
          (* context accumulation: block-local output rows, ascending k *)
          Array.fill ob 0 (jn * nw) 0.0;
          if common > 0 then
            for kk = 0 to common - 1 do
              let vrow = kk * nw in
              let a0 = Array.unsafe_get sb kk
              and a1 = Array.unsafe_get sb (nkt + kk)
              and a2 = Array.unsafe_get sb ((2 * nkt) + kk)
              and a3 = Array.unsafe_get sb ((3 * nkt) + kk) in
              for w = 0 to nw - 1 do
                let vv = Array.unsafe_get vp (vrow + w) in
                Array.unsafe_set ob w (Array.unsafe_get ob w +. (vv *. a0));
                Array.unsafe_set ob (nw + w)
                  (Array.unsafe_get ob (nw + w) +. (vv *. a1));
                Array.unsafe_set ob ((2 * nw) + w)
                  (Array.unsafe_get ob ((2 * nw) + w) +. (vv *. a2));
                Array.unsafe_set ob ((3 * nw) + w)
                  (Array.unsafe_get ob ((3 * nw) + w) +. (vv *. a3))
              done
            done;
          for r = 0 to jn - 1 do
            let srow = r * nkt and orow = r * nw in
            for kk = common to km.(r) - 1 do
              let alpha = Array.unsafe_get sb (srow + kk) in
              let vrow = kk * nw in
              for w = 0 to nw - 1 do
                Array.unsafe_set ob (orow + w)
                  (Array.unsafe_get ob (orow + w)
                  +. (Array.unsafe_get vp (vrow + w) *. alpha))
              done
            done
          done;
          (* commit the block's context rows (owned by this item) *)
          for r = 0 to jn - 1 do
            let obase = (h * g.nb * g.nj) + (b * g.nj) + j0v + r in
            for w = 0 to nw - 1 do
              Array.unsafe_set od (obase + (w * ostep))
                (Array.unsafe_get ob ((r * nw) + w))
            done
          done;
          j0 := j0v + jn
        done)))))

(* Q rows per forward work item: the parallel sharding unit. *)
let q_tile = 32

let forward ?axes ?causal ?valid ?dropout ~prescale ~q ~k ~v () =
  let axes_v = Option.value axes ~default:paper_axes in
  let g = geom_of ?axes ?causal ?valid ?dropout ~prescale ~q ~k ~v () in
  let out =
    Dense.zeros
      [ (axes_v.feat_v, g.nw); (axes_v.heads, g.nh); (axes_v.batch, g.nb);
        (axes_v.q_seq, g.nj) ]
  in
  let od = Dense.unsafe_data out in
  let nq_tiles = (g.nj + q_tile - 1) / q_tile in
  let work = g.nh * g.nb * nq_tiles in
  let item it =
    let qi = it mod nq_tiles in
    let hb = it / nq_tiles in
    let b = hb mod g.nb in
    let h = hb / g.nb in
    let qlo = qi * q_tile in
    let qhi = min (qlo + q_tile) g.nj in
    fwd_item g ~od ~h ~b ~qlo ~qhi
  in
  let flops = g.nj * g.nk * (g.np + g.nw) in
  if work >= 2 && flops >= par_min_flop && Pool.num_domains () > 1 then
    Pool.parallel_for ~label:"flashattn.fwd" ~start:0 ~finish:work
      (fun lo hi ->
        for it = lo to hi - 1 do
          item it
        done)
  else
    for it = 0 to work - 1 do
      item it
    done;
  out

(* ------------------------------------------------------------------ *)
(* Backward                                                            *)
(* ------------------------------------------------------------------ *)

(* One (h, b) work item: streams Q-row blocks against packed K/V panels,
   recomputing scores and probabilities. Scratch is O(L * d): the panels
   plus four K-length row buffers (probabilities, d-probabilities,
   dropout masks). dK/dV accumulate over rows in ascending j — additions
   sharing a destination are nested in ascending row order and the
   causal tail of each block replays rows one at a time, so blocked runs
   are bitwise identical to a row-at-a-time walk (and items own disjoint
   (h, b) slabs, so sharding is bitwise too). *)
let bwd_item g ~dgd ~dgs ~dqd ~dkd ~dvd ~h ~b =
  let nk = kmax_of g ~b ~jj:(g.nj - 1) in
  (* widest key range any row of this slot touches *)
  if nk > 0 then
    Arena.with_scratch Arena.global (nk * g.np) (fun kp ->
    Arena.with_scratch Arena.global (nk * g.nw) (fun vp ->
    Arena.with_zeroed Arena.global (nk * g.np) (fun dk ->
    Arena.with_zeroed Arena.global (nk * g.nw) (fun dv ->
    Arena.with_scratch Arena.global (row_block * nk) (fun yb ->
    Arena.with_scratch Arena.global (row_block * nk) (fun db ->
    Arena.with_scratch Arena.global (row_block * nk) (fun mb ->
    Arena.with_scratch Arena.global (row_block * g.np) (fun qb ->
    Arena.with_scratch Arena.global (row_block * g.np) (fun dqb ->
    Arena.with_scratch Arena.global (row_block * g.nw) (fun dgb ->
        pack_panel g.kd g.ks ~h ~b ~n:nk ~nf:g.np kp;
        pack_panel g.vd g.vs ~h ~b ~n:nk ~nf:g.nw vp;
        let np = g.np and nw = g.nw in
        let km = Array.make row_block 0 in
        let dqstep = g.nh * g.nb * g.nj in
        let sp = g.qs.(0) and sw = dgs.(0) in
        let j0 = ref 0 in
        while !j0 < g.nj do
          let j0v = !j0 in
          let jn = min row_block (g.nj - j0v) in
          for r = 0 to jn - 1 do
            let jj = j0v + r in
            km.(r) <- kmax_of g ~b ~jj;
            let qbase = (h * g.qs.(1)) + (b * g.qs.(2)) + (jj * g.qs.(3)) in
            let dgbase = (h * dgs.(1)) + (b * dgs.(2)) + (jj * dgs.(3)) in
            for p = 0 to np - 1 do
              Array.unsafe_set qb ((r * np) + p)
                (Array.unsafe_get g.qd (qbase + (p * sp)))
            done;
            for w = 0 to nw - 1 do
              Array.unsafe_set dgb ((r * nw) + w)
                (Array.unsafe_get dgd (dgbase + (w * sw)))
            done
          done;
          (* [kmax] is nondecreasing in j (causal widens, valid is
             per-slot), so row 0's range is the block's common prefix;
             the causal tail is replayed per row below. *)
          let common = if jn = row_block then km.(0) else 0 in
          (* scores (ascending-p dots, prescale, the oracle's +. 0.0) *)
          if common > 0 then
            for kk = 0 to common - 1 do
              let row = kk * np in
              let a0 = ref 0.0 and a1 = ref 0.0 in
              let a2 = ref 0.0 and a3 = ref 0.0 in
              for p = 0 to np - 1 do
                let kv = Array.unsafe_get kp (row + p) in
                a0 := !a0 +. (kv *. Array.unsafe_get qb p);
                a1 := !a1 +. (kv *. Array.unsafe_get qb (np + p));
                a2 := !a2 +. (kv *. Array.unsafe_get qb ((2 * np) + p));
                a3 := !a3 +. (kv *. Array.unsafe_get qb ((3 * np) + p))
              done;
              let s0 = g.prescale *. !a0 and s1 = g.prescale *. !a1 in
              let s2 = g.prescale *. !a2 and s3 = g.prescale *. !a3 in
              if g.masking then begin
                Array.unsafe_set yb kk (s0 +. 0.0);
                Array.unsafe_set yb (nk + kk) (s1 +. 0.0);
                Array.unsafe_set yb ((2 * nk) + kk) (s2 +. 0.0);
                Array.unsafe_set yb ((3 * nk) + kk) (s3 +. 0.0)
              end
              else begin
                Array.unsafe_set yb kk s0;
                Array.unsafe_set yb (nk + kk) s1;
                Array.unsafe_set yb ((2 * nk) + kk) s2;
                Array.unsafe_set yb ((3 * nk) + kk) s3
              end
            done;
          for r = 0 to jn - 1 do
            let qrow = r * np and yrow = r * nk in
            for kk = common to km.(r) - 1 do
              let row = kk * np in
              let acc = ref 0.0 in
              for p = 0 to np - 1 do
                acc :=
                  !acc
                  +. (Array.unsafe_get kp (row + p)
                     *. Array.unsafe_get qb (qrow + p))
              done;
              let s = g.prescale *. !acc in
              Array.unsafe_set yb (yrow + kk)
                (if g.masking then s +. 0.0 else s)
            done
          done;
          (* y_k: the probabilities, recomputed with the forward's recipe
             (max, exp in place, sum, then [*. (1.0 /. sum)]) *)
          for r = 0 to jn - 1 do
            let kmr = km.(r) in
            if kmr > 0 then begin
              let yrow = r * nk in
              let mx = ref neg_infinity in
              for kk = 0 to kmr - 1 do
                mx := Float.max !mx (Array.unsafe_get yb (yrow + kk))
              done;
              let nm = -1.0 *. !mx in
              let s = ref 0.0 in
              for kk = 0 to kmr - 1 do
                let ev = exp (Array.unsafe_get yb (yrow + kk) +. nm) in
                Array.unsafe_set yb (yrow + kk) ev;
                s := !s +. ev
              done;
              let inv = 1.0 /. !s in
              for kk = 0 to kmr - 1 do
                Array.unsafe_set yb (yrow + kk)
                  (Array.unsafe_get yb (yrow + kk) *. inv)
              done
            end
          done;
          (* d_alpha_k = sum_w v . d_out (gamma_dx1), then through the
             dropout mask (dropout_dx); the mask element is drawn once
             per (row, k) and kept for the dV alpha below. A missing
             dropout behaves as mask 1.0 ([x *. 1.0] is exact). *)
          if common > 0 then
            for kk = 0 to common - 1 do
              let vrow = kk * nw in
              let a0 = ref 0.0 and a1 = ref 0.0 in
              let a2 = ref 0.0 and a3 = ref 0.0 in
              for w = 0 to nw - 1 do
                let vv = Array.unsafe_get vp (vrow + w) in
                a0 := !a0 +. (vv *. Array.unsafe_get dgb w);
                a1 := !a1 +. (vv *. Array.unsafe_get dgb (nw + w));
                a2 := !a2 +. (vv *. Array.unsafe_get dgb ((2 * nw) + w));
                a3 := !a3 +. (vv *. Array.unsafe_get dgb ((3 * nw) + w))
              done;
              let m0 =
                if g.drop_p > 0.0 then
                  mask_at g
                    ((((((h * g.nb) + b) * g.nj) + j0v) * g.nk) + kk)
                else 1.0
              and m1 =
                if g.drop_p > 0.0 then
                  mask_at g
                    ((((((h * g.nb) + b) * g.nj) + j0v + 1) * g.nk) + kk)
                else 1.0
              and m2 =
                if g.drop_p > 0.0 then
                  mask_at g
                    ((((((h * g.nb) + b) * g.nj) + j0v + 2) * g.nk) + kk)
                else 1.0
              and m3 =
                if g.drop_p > 0.0 then
                  mask_at g
                    ((((((h * g.nb) + b) * g.nj) + j0v + 3) * g.nk) + kk)
                else 1.0
              in
              Array.unsafe_set mb kk m0;
              Array.unsafe_set mb (nk + kk) m1;
              Array.unsafe_set mb ((2 * nk) + kk) m2;
              Array.unsafe_set mb ((3 * nk) + kk) m3;
              Array.unsafe_set db kk (!a0 *. m0);
              Array.unsafe_set db (nk + kk) (!a1 *. m1);
              Array.unsafe_set db ((2 * nk) + kk) (!a2 *. m2);
              Array.unsafe_set db ((3 * nk) + kk) (!a3 *. m3)
            done;
          for r = 0 to jn - 1 do
            let grow = r * nw and yrow = r * nk in
            let ebase = ((((h * g.nb) + b) * g.nj) + j0v + r) * g.nk in
            for kk = common to km.(r) - 1 do
              let vrow = kk * nw in
              let acc = ref 0.0 in
              for w = 0 to nw - 1 do
                acc :=
                  !acc
                  +. (Array.unsafe_get vp (vrow + w)
                     *. Array.unsafe_get dgb (grow + w))
              done;
              let maskv =
                if g.drop_p > 0.0 then mask_at g (ebase + kk) else 1.0
              in
              Array.unsafe_set mb (yrow + kk) maskv;
              Array.unsafe_set db (yrow + kk) (!acc *. maskv)
            done
          done;
          (* softmax_dx per row: rowsum of dy*y, then
             prescale * y * (dy - rowsum); alpha = y through the mask *)
          for r = 0 to jn - 1 do
            let kmr = km.(r) in
            if kmr > 0 then begin
              let yrow = r * nk in
              let rs = ref 0.0 in
              for kk = 0 to kmr - 1 do
                rs :=
                  !rs
                  +. (Array.unsafe_get db (yrow + kk)
                     *. Array.unsafe_get yb (yrow + kk))
              done;
              let ns = -1.0 *. !rs in
              for kk = 0 to kmr - 1 do
                let y = Array.unsafe_get yb (yrow + kk) in
                Array.unsafe_set db (yrow + kk)
                  (g.prescale *. (y *. (Array.unsafe_get db (yrow + kk) +. ns)));
                Array.unsafe_set yb (yrow + kk)
                  (y *. Array.unsafe_get mb (yrow + kk))
              done
            end
          done;
          (* accumulate dq (block-local rows), dk, dv *)
          Array.fill dqb 0 (jn * np) 0.0;
          if common > 0 then
            for kk = 0 to common - 1 do
              let krow = kk * np and vrow = kk * nw in
              let b0 = Array.unsafe_get db kk
              and b1 = Array.unsafe_get db (nk + kk)
              and b2 = Array.unsafe_get db ((2 * nk) + kk)
              and b3 = Array.unsafe_get db ((3 * nk) + kk) in
              for p = 0 to np - 1 do
                let kv = Array.unsafe_get kp (krow + p) in
                Array.unsafe_set dk (krow + p)
                  (Array.unsafe_get dk (krow + p)
                  +. (Array.unsafe_get qb p *. b0)
                  +. (Array.unsafe_get qb (np + p) *. b1)
                  +. (Array.unsafe_get qb ((2 * np) + p) *. b2)
                  +. (Array.unsafe_get qb ((3 * np) + p) *. b3));
                Array.unsafe_set dqb p (Array.unsafe_get dqb p +. (kv *. b0));
                Array.unsafe_set dqb (np + p)
                  (Array.unsafe_get dqb (np + p) +. (kv *. b1));
                Array.unsafe_set dqb ((2 * np) + p)
                  (Array.unsafe_get dqb ((2 * np) + p) +. (kv *. b2));
                Array.unsafe_set dqb ((3 * np) + p)
                  (Array.unsafe_get dqb ((3 * np) + p) +. (kv *. b3))
              done;
              let a0 = Array.unsafe_get yb kk
              and a1 = Array.unsafe_get yb (nk + kk)
              and a2 = Array.unsafe_get yb ((2 * nk) + kk)
              and a3 = Array.unsafe_get yb ((3 * nk) + kk) in
              for w = 0 to nw - 1 do
                Array.unsafe_set dv (vrow + w)
                  (Array.unsafe_get dv (vrow + w)
                  +. (a0 *. Array.unsafe_get dgb w)
                  +. (a1 *. Array.unsafe_get dgb (nw + w))
                  +. (a2 *. Array.unsafe_get dgb ((2 * nw) + w))
                  +. (a3 *. Array.unsafe_get dgb ((3 * nw) + w)))
              done
            done;
          for r = 0 to jn - 1 do
            let yrow = r * nk and qrow = r * np and grow = r * nw in
            for kk = common to km.(r) - 1 do
              let krow = kk * np and vrow = kk * nw in
              let bv = Array.unsafe_get db (yrow + kk) in
              for p = 0 to np - 1 do
                Array.unsafe_set dk (krow + p)
                  (Array.unsafe_get dk (krow + p)
                  +. (Array.unsafe_get qb (qrow + p) *. bv));
                Array.unsafe_set dqb (qrow + p)
                  (Array.unsafe_get dqb (qrow + p)
                  +. (Array.unsafe_get kp (krow + p) *. bv))
              done;
              let av = Array.unsafe_get yb (yrow + kk) in
              for w = 0 to nw - 1 do
                Array.unsafe_set dv (vrow + w)
                  (Array.unsafe_get dv (vrow + w)
                  +. (av *. Array.unsafe_get dgb (grow + w)))
              done
            done
          done;
          (* commit the block's dq rows (each row owned by this item) *)
          for r = 0 to jn - 1 do
            let dqbase = (h * g.nb * g.nj) + (b * g.nj) + j0v + r in
            for p = 0 to np - 1 do
              Array.unsafe_set dqd (dqbase + (p * dqstep))
                (Array.unsafe_get dqb ((r * np) + p))
            done
          done;
          j0 := j0v + jn
        done;
        (* commit this slot's dK/dV slabs (canonical (feat,h,b,k) order) *)
        let kstep = g.nh * g.nb * g.nk in
        let kbase = (h * g.nb * g.nk) + (b * g.nk) in
        for kk = 0 to nk - 1 do
          for p = 0 to g.np - 1 do
            dkd.(kbase + kk + (p * kstep)) <- dk.((kk * g.np) + p)
          done;
          for w = 0 to g.nw - 1 do
            dvd.(kbase + kk + (w * kstep)) <- dv.((kk * g.nw) + w)
          done
        done))))))))))

let backward ?axes ?causal ?valid ?dropout ~prescale ~q ~k ~v ~d_out () =
  let axes_v = Option.value axes ~default:paper_axes in
  let g = geom_of ?axes ?causal ?valid ?dropout ~prescale ~q ~k ~v () in
  if extent d_out axes_v.feat_v <> g.nw || extent d_out axes_v.q_seq <> g.nj
  then invalid_arg "Flashattn.backward: d_out is not shaped like the context";
  let dq =
    Dense.zeros
      [ (axes_v.feat_qk, g.np); (axes_v.heads, g.nh); (axes_v.batch, g.nb);
        (axes_v.q_seq, g.nj) ]
  in
  let dk =
    Dense.zeros
      [ (axes_v.feat_qk, g.np); (axes_v.heads, g.nh); (axes_v.batch, g.nb);
        (axes_v.k_seq, g.nk) ]
  in
  let dv =
    Dense.zeros
      [ (axes_v.feat_v, g.nw); (axes_v.heads, g.nh); (axes_v.batch, g.nb);
        (axes_v.k_seq, g.nk) ]
  in
  let dgd = Dense.unsafe_data d_out in
  let dgs =
    Dense.strides_for d_out
      [ axes_v.feat_v; axes_v.heads; axes_v.batch; axes_v.q_seq ]
  in
  let dqd = Dense.unsafe_data dq in
  let dkd = Dense.unsafe_data dk in
  let dvd = Dense.unsafe_data dv in
  let work = g.nh * g.nb in
  let item it =
    let b = it mod g.nb in
    let h = it / g.nb in
    bwd_item g ~dgd ~dgs ~dqd ~dkd ~dvd ~h ~b
  in
  let flops = g.nj * g.nk * (g.np + g.nw) in
  if work >= 2 && flops >= par_min_flop && Pool.num_domains () > 1 then
    Pool.parallel_for ~label:"flashattn.bwd" ~start:0 ~finish:work
      (fun lo hi ->
        for it = lo to hi - 1 do
          item it
        done)
  else
    for it = 0 to work - 1 do
      item it
    done;
  (dq, dk, dv)

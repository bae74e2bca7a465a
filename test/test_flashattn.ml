(* Streaming tiled attention vs the naive oracle chain.

   The oracle is the exact op sequence the kernel replaces:
   qkt einsum -> softmax(prescale, +mask) -> dropout mask multiply ->
   gamma einsum, built from the same value helpers the ops run. The
   forward must match it bitwise, and the backward must recompute the
   forward's probabilities bit for bit. *)

let q = QCheck_alcotest.to_alcotest
let check_bool = Alcotest.(check bool)

module N = Ops.Normalization
module E = Ops.Elementwise

let dims_beta ~nh ~nb ~nj ~nk = [ ("h", nh); ("b", nb); ("j", nj); ("k", nk) ]

(* The naive chain at value level. [valid.(b)] limits slot b to its first
   valid keys via a 0/-inf mask, the mask a decode step's cached
   attention (Mha.attend) builds over each session's cache for its naive
   fallback. *)
let oracle ?(causal = false) ?valid ?dropmask ~prescale ~qt ~kt ~vt ~nj ~nk
    () =
  let beta = Einsum.eval "phbk,phbj->hbjk" [ kt; qt ] in
  (* masks land after the prescale, exactly where softmax_masked adds them *)
  let masks =
    (if causal then [ N.causal_mask ~q:"j" ~k:"k" [ ("j", nj); ("k", nk) ] ]
     else [])
    @
    match valid with
    | None -> []
    | Some a ->
        [
          Dense.init [ ("b", Array.length a); ("k", nk) ] (fun idx ->
              if List.assoc "k" idx < a.(List.assoc "b" idx) then 0.0
              else neg_infinity);
        ]
  in
  let alpha_sm =
    match masks with
    | [] -> N.softmax_masked beta ~axis:"k" ~prescale
    | ms ->
        let xs = List.fold_left Dense.add_bcast (Dense.scale prescale beta) ms in
        N.softmax_masked xs ~axis:"k" ~prescale:1.0
  in
  let alpha =
    match dropmask with
    | None -> alpha_sm
    | Some m -> Dense.mul alpha_sm m
  in
  (alpha_sm, alpha, Einsum.eval "whbk,hbjk->whbj" [ vt; alpha ])

(* softmax_dx_value, inlined (it is not exported). *)
let softmax_dx ~dy ~y ~prescale =
  let inner = Dense.sum_over (Dense.mul dy y) [ "k" ] in
  let centered = Dense.add_bcast dy (Dense.scale (-1.0) inner) in
  Dense.scale prescale (Dense.mul y centered)

let oracle_grads ?dropmask ~prescale ~qt ~kt ~vt ~alpha_sm ~alpha ~d_out () =
  let d_alpha = Einsum.eval "whbk,whbj->hbjk" [ vt; d_out ] in
  let d_alpha_sm =
    match dropmask with None -> d_alpha | Some m -> Dense.mul d_alpha m
  in
  let d_beta = softmax_dx ~dy:d_alpha_sm ~y:alpha_sm ~prescale in
  let dq = Einsum.eval "phbk,hbjk->phbj" [ kt; d_beta ] in
  let dk = Einsum.eval "phbj,hbjk->phbk" [ qt; d_beta ] in
  let dv = Einsum.eval "hbjk,whbj->whbk" [ alpha; d_out ] in
  (dq, dk, dv)

let bitwise a b =
  Dense.volume a = Dense.volume b
  && Array.for_all2 Float.equal (Dense.unsafe_data a) (Dense.unsafe_data b)

(* random tensors in a layout-shuffled storage order *)
let shuffled_rand prng dims =
  let arr = Array.of_list dims in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Prng.int prng ~bound:(i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Dense.rand prng (Array.to_list arr) ~lo:(-1.0) ~hi:1.0

let make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk =
  ( shuffled_rand prng [ ("p", np); ("h", nh); ("b", nb); ("j", nj) ],
    shuffled_rand prng [ ("p", np); ("h", nh); ("b", nb); ("k", nk) ],
    shuffled_rand prng [ ("w", nw); ("h", nh); ("b", nb); ("k", nk) ] )

(* ---------------- forward vs oracle ---------------- *)

(* Shapes for the kernel's row-block walk: nj and nk up to 70 straddle
   the 16-row blocks and 32-row tiles (nj <> nk in general); causal rows
   inside one block read different key prefixes; ragged [valid] slots,
   the last of several with no key at all; dropout on or off. *)
let block_walk_shapes =
  QCheck.(
    pair
      (quad (int_range 1 6) (int_range 1 70) (int_range 1 70)
         (pair (int_range 1 3) (int_range 1 3)))
      (triple bool bool bool))

type variant = {
  causal : bool;
  valid : int array option;
  dropout : Flashattn.dropout option;
  dropmask : Dense.t option;
}

let variant_of prng ~nh ~nb ~nj ~nk (causal, ragged, drop) =
  let valid =
    if ragged then
      Some
        (Array.init nb (fun b ->
             if nb > 1 && b = nb - 1 then 0 else 1 + Prng.int prng ~bound:nk))
    else None
  in
  let dropout, dropmask =
    if drop then
      let p = 0.3 and seed = 4242L and key = "attn_dropout" in
      let dims = dims_beta ~nh ~nb ~nj ~nk in
      ( Some { Flashattn.p; seed; key; dims },
        Some (E.dropout_mask ~seed ~name:key dims ~p) )
    else (None, None)
  in
  { causal; valid; dropout; dropmask }

(* [got] equals [want] bitwise, except in slots with no valid key: the
   kernel leaves zeros there, where the naive chain yields NaN. *)
let bitwise_valid ?valid want got =
  match valid with
  | None -> bitwise want got
  | Some a ->
      bitwise
        (Dense.init
           (Shape.to_list (Dense.shape got))
           (fun idx ->
             if a.(List.assoc "b" idx) = 0 then 0.0 else Dense.get want idx))
        got

let prop_forward_bitwise =
  QCheck.Test.make ~name:"forward equals naive chain bitwise, any layout"
    ~count:40 block_walk_shapes
    (fun ((np, nj, nk, (nh, nb)), flags) ->
      let nw = ((np * 5) mod 7) + 1 in
      let prng =
        Prng.create
          (Int64.of_int
             ((np * 131071) + (nj * 257) + (nk * 31) + (nh * 17) + nb))
      in
      let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
      let { causal; valid; dropout; dropmask } =
        variant_of prng ~nh ~nb ~nj ~nk flags
      in
      let prescale = 1.0 /. sqrt (float_of_int np) in
      let _, _, want =
        oracle ~causal ?valid ?dropmask ~prescale ~qt ~kt ~vt ~nj ~nk ()
      in
      let got =
        Flashattn.forward ~causal ?valid ?dropout ~prescale ~q:qt ~k:kt ~v:vt
          ()
      in
      bitwise_valid ?valid want got)

(* nj = 64 spans two Q-row tiles; each row reads only its first j + 1
   keys. *)
let test_causal () =
  let np = 8 and nw = 8 and nh = 2 and nb = 2 and nj = 64 in
  let nk = nj in
  let prng = Prng.create 42L in
  let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
  let prescale = 1.0 /. sqrt 8.0 in
  let _, _, want = oracle ~causal:true ~prescale ~qt ~kt ~vt ~nj ~nk () in
  let got =
    Flashattn.forward ~causal:true ~prescale ~q:qt ~k:kt ~v:vt ()
  in
  check_bool "causal bitwise" true (bitwise want got)

let test_ragged_valid () =
  let np = 4 and nw = 6 and nh = 2 and nb = 3 and nj = 1 and nk = 9 in
  let prng = Prng.create 7L in
  let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
  let valid = [| 3; 9; 5 |] in
  let prescale = 1.0 /. sqrt 4.0 in
  let _, _, want = oracle ~valid ~prescale ~qt ~kt ~vt ~nj ~nk () in
  let got = Flashattn.forward ~valid ~prescale ~q:qt ~k:kt ~v:vt () in
  check_bool "ragged valid bitwise" true (bitwise want got)

(* ---------------- dropout ---------------- *)

(* nj = 40: the mask is drawn from two Q-row tile work items. *)
let test_dropout_bitwise () =
  let np = 8 and nw = 8 and nh = 2 and nb = 2 and nj = 40 and nk = 16 in
  let prng = Prng.create 99L in
  let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
  let prescale = 1.0 /. sqrt 8.0 in
  let p = 0.35 and seed = 1234L and key = "attn_dropout" in
  let dims = dims_beta ~nh ~nb ~nj ~nk in
  let dropmask = E.dropout_mask ~seed ~name:key dims ~p in
  let _, _, want = oracle ~dropmask ~prescale ~qt ~kt ~vt ~nj ~nk () in
  let dropout = { Flashattn.p; seed; key; dims } in
  let got = Flashattn.forward ~dropout ~prescale ~q:qt ~k:kt ~v:vt () in
  check_bool "dropout bitwise (counter-based = sequential walk)" true
    (bitwise want got)

(* Rows whose scores are all zeros: each row's maximum is a zero (+0, or
   -0 under a negative prescale), the case where the kernel's vector max
   refolds the row in order. Both directions stay bitwise. *)
let test_zero_score_rows () =
  let np = 8 and nw = 8 and nh = 2 and nb = 1 and nj = 21 and nk = 19 in
  let prng = Prng.create 71L in
  let _, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
  let qt = Dense.zeros [ ("p", np); ("h", nh); ("b", nb); ("j", nj) ] in
  let d_out =
    Dense.rand prng [ ("w", nw); ("h", nh); ("b", nb); ("j", nj) ] ~lo:(-1.0)
      ~hi:1.0
  in
  List.iter
    (fun prescale ->
      let alpha_sm, alpha, want = oracle ~prescale ~qt ~kt ~vt ~nj ~nk () in
      let got = Flashattn.forward ~prescale ~q:qt ~k:kt ~v:vt () in
      check_bool (Printf.sprintf "forward, prescale %g" prescale) true
        (bitwise want got);
      let dq, dk, dv =
        oracle_grads ~prescale ~qt ~kt ~vt ~alpha_sm ~alpha ~d_out ()
      in
      let gq, gk, gv =
        Flashattn.backward ~prescale ~q:qt ~k:kt ~v:vt ~d_out ()
      in
      check_bool (Printf.sprintf "backward, prescale %g" prescale) true
        (bitwise dq gq && bitwise dk gk && bitwise dv gv))
    [ 0.5; -0.5 ]

(* ---------------- recomputed probabilities ---------------- *)

(* With d_out one-hot at (w = 0, row j0) and no dropout, dv(w = 0, k) is
   the sum over rows of alpha(j, k) * d_out(0, j): every term but row
   j0's is +0.0, so it equals the backward's recomputed alpha(j0, k)
   exactly — which must be the oracle's softmax, bit for bit. *)
let test_recomputed_probabilities () =
  let np = 6 and nw = 6 and nh = 2 and nb = 2 and nj = 10 in
  let prng = Prng.create 5L in
  let prescale = 1.0 /. sqrt 6.0 in
  List.iter
    (fun (causal, nk) ->
      let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
      let alpha_sm, _, _ = oracle ~causal ~prescale ~qt ~kt ~vt ~nj ~nk () in
      for j0 = 0 to nj - 1 do
        let d_out =
          Dense.init [ ("w", nw); ("h", nh); ("b", nb); ("j", nj) ] (fun idx ->
              if List.assoc "w" idx = 0 && List.assoc "j" idx = j0 then 1.0
              else 0.0)
        in
        let _, _, dv =
          Flashattn.backward ~causal ~prescale ~q:qt ~k:kt ~v:vt ~d_out ()
        in
        for h = 0 to nh - 1 do
          for b = 0 to nb - 1 do
            for k = 0 to nk - 1 do
              let want =
                Dense.get alpha_sm [ ("h", h); ("b", b); ("j", j0); ("k", k) ]
              and got =
                Dense.get dv [ ("w", 0); ("h", h); ("b", b); ("k", k) ]
              in
              if not (Float.equal want got) then
                Alcotest.failf
                  "causal=%b j0=%d h=%d b=%d k=%d: dv %h <> alpha_sm %h" causal
                  j0 h b k got want
            done
          done
        done
      done)
    [ (false, 14); (true, nj) ]

(* ---------------- backward vs oracle ---------------- *)

let prop_backward_bitwise =
  QCheck.Test.make
    ~name:"backward (recomputed tiles) matches oracle grads bitwise"
    ~count:30 block_walk_shapes
    (fun ((np, nj, nk, (nh, nb)), flags) ->
      let nw = np + 1 in
      let prng =
        Prng.create
          (Int64.of_int ((np * 523) + (nj * 31) + (nk * 13) + (nh * 7) + nb))
      in
      let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
      let { causal; valid; dropout; dropmask } =
        variant_of prng ~nh ~nb ~nj ~nk flags
      in
      let prescale = 1.0 /. sqrt (float_of_int np) in
      let d_out =
        shuffled_rand prng [ ("w", nw); ("h", nh); ("b", nb); ("j", nj) ]
      in
      let alpha_sm, alpha, _ =
        oracle ~causal ?valid ?dropmask ~prescale ~qt ~kt ~vt ~nj ~nk ()
      in
      let wq, wk, wv =
        oracle_grads ?dropmask ~prescale ~qt ~kt ~vt ~alpha_sm ~alpha ~d_out ()
      in
      let gq, gk, gv =
        Flashattn.backward ~causal ?valid ?dropout ~prescale ~q:qt ~k:kt
          ~v:vt ~d_out ()
      in
      bitwise_valid ?valid wq gq
      && bitwise_valid ?valid wk gk
      && bitwise_valid ?valid wv gv)

(* The second shape is training's: L = 64 spans two Q-row tiles, with
   d_head = 64 and dropout 0.1. Forward and gradients are bitwise. *)
let test_backward_causal_dropout () =
  List.iter
    (fun (np, nh, nb, nj, p, prng_seed) ->
      let nw = np and nk = nj in
      let prng = Prng.create prng_seed in
      let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
      let prescale = 1.0 /. sqrt (float_of_int np) in
      let seed = 77L and key = "attn_dropout" in
      let dims = dims_beta ~nh ~nb ~nj ~nk in
      let dropmask = E.dropout_mask ~seed ~name:key dims ~p in
      let d_out = Dense.rand prng [ ("w", nw); ("h", nh); ("b", nb); ("j", nj) ] ~lo:(-1.0) ~hi:1.0 in
      let alpha_sm, alpha, want =
        oracle ~causal:true ~dropmask ~prescale ~qt ~kt ~vt ~nj ~nk ()
      in
      let wq, wk, wv =
        oracle_grads ~dropmask ~prescale ~qt ~kt ~vt ~alpha_sm ~alpha ~d_out ()
      in
      let dropout = { Flashattn.p; seed; key; dims } in
      let got =
        Flashattn.forward ~causal:true ~dropout ~prescale ~q:qt ~k:kt ~v:vt ()
      in
      let gq, gk, gv =
        Flashattn.backward ~causal:true ~dropout ~prescale ~q:qt ~k:kt ~v:vt
          ~d_out ()
      in
      let tag = Printf.sprintf "L=%d " nj in
      check_bool (tag ^ "out") true (bitwise want got);
      check_bool (tag ^ "dq") true (bitwise wq gq);
      check_bool (tag ^ "dk") true (bitwise wk gk);
      check_bool (tag ^ "dv") true (bitwise wv gv))
    [ (8, 2, 2, 24, 0.25, 11L); (64, 4, 1, 64, 0.1, 0xA77EL) ]

(* ---------------- KV-cache incremental decode ---------------- *)

let test_incremental_equals_full () =
  let np = 8 and nw = 8 and nh = 2 and nb = 2 and nj = 12 in
  let nk = nj in
  let prng = Prng.create 23L in
  let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
  let prescale = 1.0 /. sqrt 8.0 in
  let full = Flashattn.forward ~causal:true ~prescale ~q:qt ~k:kt ~v:vt () in
  (* each decode step: one query column against its visible prefix,
     expressed through the ragged [valid] limit like the serving path *)
  for j = 0 to nj - 1 do
    let qstep =
      Dense.init [ ("p", np); ("h", nh); ("b", nb); ("j", 1) ] (fun idx ->
          Dense.get qt (("j", j) :: List.remove_assoc "j" idx))
    in
    let valid = Array.make nb (j + 1) in
    let step = Flashattn.forward ~valid ~prescale ~q:qstep ~k:kt ~v:vt () in
    for w = 0 to nw - 1 do
      for h = 0 to nh - 1 do
        for b = 0 to nb - 1 do
          let f =
            Dense.get full [ ("w", w); ("h", h); ("b", b); ("j", j) ]
          in
          let s =
            Dense.get step [ ("w", w); ("h", h); ("b", b); ("j", 0) ]
          in
          check_bool "incremental step == full-prefix row, bitwise" true
            (Float.equal f s)
        done
      done
    done
  done

(* ---------------- parallel determinism ---------------- *)

(* Two geometries: four (h, b) slabs, sharded as work items, and one
   slab at L = 96, whose single backward item leaves the sharding to the
   GEMMs' own rows. *)
let test_parallel_determinism () =
  List.iter
    (fun (nh, nb, nj) ->
      let np = 8 and nw = 8 in
      let nk = nj in
      let prng = Prng.create 301L in
      let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
      let prescale = 1.0 /. sqrt 8.0 in
      let d_out = Dense.rand prng [ ("w", nw); ("h", nh); ("b", nb); ("j", nj) ] ~lo:(-1.0) ~hi:1.0 in
      let run () =
        let out = Flashattn.forward ~causal:true ~prescale ~q:qt ~k:kt ~v:vt () in
        let dq, dk, dv =
          Flashattn.backward ~causal:true ~prescale ~q:qt ~k:kt ~v:vt ~d_out ()
        in
        (out, dq, dk, dv)
      in
      let o1, q1, k1, v1 = Pool.with_domains 1 run in
      let o4, q4, k4, v4 = Pool.with_domains 4 run in
      let tag = Printf.sprintf "%d slab(s), L=%d: " (nh * nb) nj in
      check_bool (tag ^ "out serial == parallel") true (bitwise o1 o4);
      check_bool (tag ^ "dq serial == parallel") true (bitwise q1 q4);
      check_bool (tag ^ "dk serial == parallel") true (bitwise k1 k4);
      check_bool (tag ^ "dv serial == parallel") true (bitwise v1 v4))
    [ (2, 2, 64); (1, 1, 96) ]

(* ---------------- working set ---------------- *)

(* The kernel's scratch is the K/V panels of a key prefix plus row
   buffers, O(L * d_head), never the L x L score matrix. Counted on one
   domain, so the calling domain's arena sees every borrow. *)
let test_working_set () =
  let np = 64 and nh = 4 and nb = 1 in
  let prescale = 1.0 /. 8.0 in
  List.iter
    (fun l ->
      let prng = Prng.create (Int64.of_int l) in
      let qt, kt, vt = make_qkv prng ~np ~nw:np ~nh ~nb ~nj:l ~nk:l in
      let d_out = shuffled_rand prng [ ("w", np); ("h", nh); ("b", nb); ("j", l) ] in
      let dropout =
        { Flashattn.p = 0.1; seed = 0xA77EL; key = "attn_dropout";
          dims = dims_beta ~nh ~nb ~nj:l ~nk:l }
      in
      let peak f =
        Arena.reset_peak Arena.global;
        ignore (Pool.with_domains 1 f);
        (Arena.stats Arena.global).Arena.peak_floats
      in
      let fwd =
        peak (fun () ->
            Flashattn.forward ~causal:true ~dropout ~prescale ~q:qt ~k:kt ~v:vt ())
      in
      let bwd =
        peak (fun () ->
            Flashattn.backward ~causal:true ~dropout ~prescale ~q:qt ~k:kt
              ~v:vt ~d_out ())
      in
      List.iter
        (fun (dir, floats) ->
          check_bool
            (Printf.sprintf "L=%d %s peak %d < 12 L d_head" l dir floats)
            true
            (0 < floats && floats < 12 * l * np))
        [ ("forward", fwd); ("backward", bwd) ])
    [ 128; 512; 2048 ]

(* ---------------- graph-level fusion ---------------- *)

let nt = Transformer.Encoder.kernel_names

let test_attention_grouping () =
  let hp = Transformer.Hparams.tiny in
  let program = Transformer.Encoder.program hp in
  let names g = List.map (fun (x : Substation.Fusion.group) -> x.fused.Ops.Op.name) g in
  let with_attn =
    names (Substation.Fusion.groups ~name_table:nt ~attention:true program)
  in
  check_bool "ATTN window formed" true (List.mem "ATTN" with_attn);
  check_bool "ATTN_dx window formed" true (List.mem "ATTN_dx" with_attn);
  check_bool "default grouping unchanged" false
    (List.mem "ATTN"
       (names (Substation.Fusion.groups ~name_table:nt program)));
  (* the streaming window elides the L x L score containers *)
  let attn =
    List.find
      (fun (g : Substation.Fusion.group) ->
        String.equal g.fused.Ops.Op.name "ATTN")
      (Substation.Fusion.groups ~name_table:nt ~attention:true program)
  in
  Alcotest.(check (list string))
    "ATTN writes only the context" [ "gam" ] attn.fused.Ops.Op.writes

(* Minor words per call at L=128, 4 heads, dropout on, one domain. The
   GEMM calls (required offsets, nothing boxed), the mask draws and the
   per-score rows allocate nothing; what is left is per-call and per-item
   bookkeeping (output tensors, the geometry record, the work-item
   closures, the protected arena borrows). Measured 1,149 words per
   forward (16 work items) and 1,122 per backward (4 items); with boxed
   optional GEMM offsets and OCaml draw loops they were 1,469 and 1,954. *)
let test_allocation_budget () =
  Pool.with_domains 1 (fun () ->
      let prng = Prng.create 53L in
      let rand dims = Dense.rand prng dims ~lo:(-1.0) ~hi:1.0 in
      let np = 32 and nh = 4 and l = 128 in
      let q = rand [ ("p", np); ("h", nh); ("b", 1); ("j", l) ] in
      let k = rand [ ("p", np); ("h", nh); ("b", 1); ("k", l) ] in
      let v = rand [ ("w", np); ("h", nh); ("b", 1); ("k", l) ] in
      let d_out = rand [ ("w", np); ("h", nh); ("b", 1); ("j", l) ] in
      let dropout =
        {
          Flashattn.p = 0.1;
          seed = 5L;
          key = "attn_dropout";
          dims = dims_beta ~nh ~nb:1 ~nj:l ~nk:l;
        }
      in
      let prescale = 1.0 /. sqrt (float_of_int np) in
      let per_call f =
        f ();
        let calls = 20 in
        let before = Gc.minor_words () in
        for _ = 1 to calls do
          f ()
        done;
        (Gc.minor_words () -. before) /. float_of_int calls
      in
      List.iter
        (fun (dir, bound, f) ->
          let w = per_call f in
          check_bool
            (Printf.sprintf "L=%d, %d heads, %s: %.0f minor words/call < %d" l
               nh dir w bound)
            true
            (w < float_of_int bound))
        [
          ( "forward",
            1300,
            fun () ->
              ignore (Flashattn.forward ~dropout ~prescale ~q ~k ~v ()) );
          ( "backward",
            1300,
            fun () ->
              ignore
                (Flashattn.backward ~dropout ~prescale ~q ~k ~v ~d_out ()) );
        ])

let run_encoder program hp =
  let prng = Prng.create 99L in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  Ops.Program.run program (("x", x) :: ("d_y", d_y) :: params)

let test_attention_fusion_semantics causal () =
  let hp = Transformer.Hparams.tiny in
  let program = Transformer.Encoder.program_with ~causal hp in
  let fused = Substation.Fusion.fuse ~name_table:nt ~attention:true program in
  let env1 = Fastmode.with_naive (fun () -> run_encoder program hp) in
  let env2 = Fastmode.with_mode true (fun () -> run_encoder fused hp) in
  let get env c = Ops.Op.lookup env c in
  (* forward and backward both reproduce the member chains bitwise *)
  List.iter
    (fun c ->
      check_bool (c ^ " bitwise") true (bitwise (get env1 c) (get env2 c)))
    [ "gam"; "y"; "d_qqb"; "d_kkb"; "d_vvb"; "d_x"; "d_w1"; "d_wo" ];
  (* score-matrix containers were never materialized on the fast path *)
  check_bool "alpha elided" false (Hashtbl.mem env2 "alpha");
  check_bool "beta elided" false (Hashtbl.mem env2 "beta")

let () =
  Alcotest.run "flashattn"
    [
      ( "forward",
        [
          q prop_forward_bitwise;
          Alcotest.test_case "causal masking" `Quick test_causal;
          Alcotest.test_case "ragged valid lengths" `Quick test_ragged_valid;
          Alcotest.test_case "all-zero score rows" `Quick test_zero_score_rows;
        ] );
      ( "dropout",
        [ Alcotest.test_case "counter-based mask" `Quick test_dropout_bitwise ] );
      ( "backward",
        [
          q prop_backward_bitwise;
          Alcotest.test_case "recomputed probabilities bitwise" `Quick
            test_recomputed_probabilities;
          Alcotest.test_case "causal + dropout grads" `Quick
            test_backward_causal_dropout;
        ] );
      ( "serving",
        [
          Alcotest.test_case "incremental decode == full prefix" `Quick
            test_incremental_equals_full;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "serial == parallel, fwd+bwd" `Quick
            test_parallel_determinism;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "peak < 12 L d_head, fwd+bwd" `Quick
            test_working_set;
          Alcotest.test_case "minor words per call, fwd and bwd" `Quick
            test_allocation_budget;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "attention windows recognized" `Quick
            test_attention_grouping;
          Alcotest.test_case "encoder: fused == naive" `Quick
            (test_attention_fusion_semantics false);
          Alcotest.test_case "decoder (causal): fused == naive" `Quick
            (test_attention_fusion_semantics true);
        ] );
    ]

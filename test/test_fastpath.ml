(* Tests for the fast CPU numeric backend: the blocked-GEMM kernel against
   a naive triple loop, the einsum fast path against the odometer oracle
   across randomized shapes and storage layouts, parse memoization, and the
   fused executor kernels (full encoder/decoder programs, fast vs naive,
   including the decoder's -inf causal masks and bitwise dropout masks;
   random element-wise chains across tile boundaries; the kernels'
   allocation budget). *)

let q = QCheck_alcotest.to_alcotest
let check_bool = Alcotest.(check bool)

let shuffle_list prng xs =
  (* Deterministic shuffle driven by the test PRNG. *)
  let arr = Array.of_list xs in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Prng.int prng ~bound:(i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

(* ---------------- GEMM kernel ---------------- *)

let prop_gemm_matches_triple_loop =
  QCheck.Test.make ~name:"blocked gemm equals naive triple loop bitwise"
    ~count:40
    QCheck.(triple (int_range 1 33) (int_range 1 33) (int_range 1 33))
    (fun (m, n, k) ->
      let prng = Prng.create (Int64.of_int ((m * 1681) + (n * 41) + k)) in
      let a = Dense.unsafe_data (Dense.rand prng [ ("m", m); ("k", k) ] ~lo:(-1.0) ~hi:1.0) in
      let b = Dense.unsafe_data (Dense.rand prng [ ("k", k); ("n", n) ] ~lo:(-1.0) ~hi:1.0) in
      let c = Array.make (m * n) 0.0 in
      Gemm.gemm ~a_off:0 ~b_off:0 ~c_off:0 ~m ~n ~k a b c;
      let r = Array.make (m * n) 0.0 in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          for l = 0 to k - 1 do
            r.((i * n) + j) <-
              r.((i * n) + j) +. (a.((i * k) + l) *. b.((l * n) + j))
          done
        done
      done;
      (* Identical accumulation order: exact equality, not a tolerance. *)
      Array.for_all2 (fun x y -> Float.equal x y) c r)

(* Past the panel depth (k up to 300 crosses two k-panel boundaries), with
   every m mod 4 (leftover rows beside the 4-row tiles), every n mod 8 (the
   4x4 tile and the narrow columns, on 8-row tiles), m up to 40 (full
   8-row blocks and every remainder past them), a non-zero starting C and
   non-zero offsets into larger buffers: still the triple loop, bitwise. *)
let prop_gemm_panels_remainders_offsets =
  QCheck.Test.make
    ~name:"gemm across k panels, tile remainders and offsets equals triple loop"
    ~count:60
    QCheck.(
      quad (int_range 1 40) (int_range 1 20) (int_range 1 300) (int_range 0 63))
    (fun (m, n, k, offs) ->
      let a_off = offs land 3 and b_off = (offs lsr 2) land 3
      and c_off = offs lsr 4 in
      let prng = Prng.create (Int64.of_int ((m * 7919) + (n * 307) + k + offs)) in
      let arr len =
        Dense.unsafe_data (Dense.rand prng [ ("x", len) ] ~lo:(-1.0) ~hi:1.0)
      in
      let a = arr ((m * k) + a_off) and b = arr ((k * n) + b_off) in
      let c = arr ((m * n) + c_off) in
      let r = Array.copy c in
      Gemm.gemm ~a_off ~b_off ~c_off ~m ~n ~k a b c;
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let t = c_off + (i * n) + j in
          for l = 0 to k - 1 do
            r.(t) <- r.(t) +. (a.(a_off + (i * k) + l) *. b.(b_off + (l * n) + j))
          done
        done
      done;
      Array.for_all2 Float.equal c r)

(* The triple loop over [r] in place: C at [c_off] += A at [a_off] times B
   at [b_off], each element summed in ascending k. *)
let naive_gemm ~a_off ~b_off ~c_off ~m ~n ~k a b r =
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let t = c_off + (i * n) + j in
      for l = 0 to k - 1 do
        r.(t) <- r.(t) +. (a.(a_off + (i * k) + l) *. b.(b_off + (l * n) + j))
      done
    done
  done

let rand_floats prng len =
  Dense.unsafe_data (Dense.rand prng [ ("x", len) ] ~lo:(-1.0) ~hi:1.0)

(* Flashattn passes one buffer as A, B and C at disjoint offsets. The
   kernel must read A and B from that buffer while writing C into it,
   leave the A and B regions as they were, and still equal the triple
   loop bitwise: on 4x8 tiles with a 4x4 and leftover rows (18x12x40,
   C ahead of A and B) and on the narrow 8-row tiles past a k panel
   (19x1x130, C behind them, gaps between the regions). *)
let test_gemm_aliased_buffer () =
  let prng = Prng.create 211L in
  List.iter
    (fun (m, n, k, c_first) ->
      let sa = m * k and sb = k * n and sc = m * n in
      let a_off, b_off, c_off =
        if c_first then (sc + 5, sc + sa + 9, 2) else (3, sa + 7, sa + sb + 11)
      in
      let buf = rand_floats prng (sa + sb + sc + 16) in
      let r = Array.copy buf in
      naive_gemm ~a_off ~b_off ~c_off ~m ~n ~k buf buf r;
      Gemm.gemm ~a_off ~b_off ~c_off ~m ~n ~k buf buf buf;
      check_bool
        (Printf.sprintf "%dx%dx%d in one buffer = triple loop" m n k)
        true
        (Array.for_all2 Float.equal buf r))
    [ (18, 12, 40, true); (19, 1, 130, false) ]

(* The shapes the workloads reach, at 1 and 2 domains from a non-zero C:
   multi-panel full tiles (the encoder's projections), Flashattn's 16-row
   blocks against 512 keys and its key-side backward, and the decode
   GEMVs. *)
let test_gemm_workload_shapes () =
  let prng = Prng.create 223L in
  List.iter
    (fun (m, n, k) ->
      let a = rand_floats prng (m * k) and b = rand_floats prng (k * n) in
      let c0 = rand_floats prng (m * n) in
      let r = Array.copy c0 in
      naive_gemm ~a_off:0 ~b_off:0 ~c_off:0 ~m ~n ~k a b r;
      List.iter
        (fun d ->
          let c = Array.copy c0 in
          Pool.with_domains d (fun () ->
              Gemm.gemm ~a_off:0 ~b_off:0 ~c_off:0 ~m ~n ~k a b c);
          check_bool
            (Printf.sprintf "%dx%dx%d at %d domain(s) = triple loop" m n k d)
            true
            (Array.for_all2 Float.equal c r))
        [ 1; 2 ])
    [
      (128, 128, 512); (512, 128, 128);
      (16, 512, 32); (16, 32, 512); (512, 32, 16);
      (128, 1, 128); (512, 2, 128);
    ]

(* The kernel is a [noalloc] external over untagged ints: a call allocates
   nothing, on the narrow tiles (decode GEMVs, n < 4) and the 4x8 tiles
   alike. *)
let test_gemm_narrow_allocation () =
  Pool.with_domains 1 (fun () ->
      List.iter
        (fun (m, n, k) ->
          let a = Array.make (m * k) 0.5 and b = Array.make (k * n) 0.25 in
          let c = Array.make (m * n) 0.0 in
          let calls = 200 in
          Gemm.gemm ~a_off:0 ~b_off:0 ~c_off:0 ~m ~n ~k a b c;
          let before = Gc.minor_words () in
          for _ = 1 to calls do
            Gemm.gemm ~a_off:0 ~b_off:0 ~c_off:0 ~m ~n ~k a b c
          done;
          let w = (Gc.minor_words () -. before) /. float_of_int calls in
          check_bool
            (Printf.sprintf "%dx%dx%d: %.2f minor words/call < 1" m n k w)
            true (w < 1.0))
        [ (128, 1, 128); (512, 2, 128); (64, 64, 64); (16, 512, 32) ])

(* ---------------- einsum fast path vs oracle ---------------- *)

(* One contraction on the fast backend and on the naive oracle. *)
let contract_both ?scale inputs ~out =
  let run fast =
    Fastmode.with_mode fast (fun () -> Einsum.contract ?scale inputs ~out)
  in
  (run true, run false)

(* Batched matmul with every operand and the output in a random storage
   order, so the fast path must pack non-contiguous views. *)
let prop_einsum_matmul_layouts =
  QCheck.Test.make
    ~name:"matmul-shaped einsum: fast equals naive over random layouts"
    ~count:60
    QCheck.(
      quad (int_range 1 7) (int_range 1 7) (int_range 1 7) (int_range 1 5))
    (fun (m, n, k, b) ->
      let seed = Int64.of_int ((m * 10007) + (n * 101) + (k * 11) + b) in
      let prng = Prng.create seed in
      let a_t =
        Dense.rand prng [ ("b", b); ("m", m); ("k", k) ] ~lo:(-1.0) ~hi:1.0
      in
      let b_t =
        Dense.rand prng [ ("b", b); ("k", k); ("n", n) ] ~lo:(-1.0) ~hi:1.0
      in
      let a_t = Dense.permute a_t (shuffle_list prng (Dense.axes a_t)) in
      let b_t = Dense.permute b_t (shuffle_list prng (Dense.axes b_t)) in
      let out = shuffle_list prng [ "b"; "m"; "n" ] in
      let fast, naive = contract_both [ a_t; b_t ] ~out in
      Dense.max_abs_diff fast naive <= 1e-9)

(* A contraction the matmul classifier cannot take (three operands), plus
   scaling: on the fast backend it runs the odometer under the GEMM's
   guard. *)
let prop_einsum_non_gemm =
  QCheck.Test.make ~name:"non-GEMM einsum: fast backend equals naive"
    ~count:40
    QCheck.(triple (int_range 1 5) (int_range 1 5) (int_range 1 5))
    (fun (x, y, z) ->
      let prng = Prng.create (Int64.of_int ((x * 289) + (y * 17) + z)) in
      let a = Dense.rand prng [ ("a", x); ("b", y) ] ~lo:(-1.0) ~hi:1.0 in
      let b = Dense.rand prng [ ("b", y); ("c", z) ] ~lo:(-1.0) ~hi:1.0 in
      let c = Dense.rand prng [ ("c", z); ("d", x) ] ~lo:(-1.0) ~hi:1.0 in
      let fast, naive =
        contract_both ~scale:0.5 [ a; b; c ] ~out:[ "a"; "d" ]
      in
      Dense.max_abs_diff fast naive <= 1e-9)

(* Vector-shaped corner cases: size-1 m/n/k groups, missing batch axes, and
   pure reductions must all classify (or fall back) correctly. *)
let test_einsum_corner_shapes () =
  let prng = Prng.create 5L in
  let check spec inputs out =
    let fast, naive = contract_both inputs ~out in
    check_bool spec true (Dense.max_abs_diff fast naive <= 1e-9)
  in
  let v = Dense.rand prng [ ("k", 9) ] ~lo:(-1.0) ~hi:1.0 in
  let w = Dense.rand prng [ ("k", 9) ] ~lo:(-1.0) ~hi:1.0 in
  check "dot" [ v; w ] [];
  let mt = Dense.rand prng [ ("m", 4); ("k", 9) ] ~lo:(-1.0) ~hi:1.0 in
  check "matvec" [ mt; w ] [ "m" ];
  check "outer" [ v; Dense.rand prng [ ("n", 3) ] ~lo:(-1.0) ~hi:1.0 ]
    [ "k"; "n" ];
  check "reduce all" [ mt ] [];
  check "transpose-ish" [ mt ] [ "k"; "m" ]

let test_parse_memoized () =
  let a = Einsum.parse "phi,ibj->phbj" in
  let b = Einsum.parse "phi,ibj->phbj" in
  check_bool "same spec string returns the memoized value" true (a == b)

(* ---------------- fused executor kernels ---------------- *)

(* The strongest oracle: the *unfused* program on the naive backend vs the
   *fused* program on the fast backend, compared container by container.
   Covers the GEMM einsum path, every fused chain and reduction kernel,
   and the deterministic dropout masks in one sweep. *)
let envs_agree ~name program name_table inputs =
  let fused = Substation.Fusion.fuse ~name_table program in
  let env_naive =
    Fastmode.with_naive (fun () -> Ops.Program.run program inputs)
  in
  let env_fast =
    Fastmode.with_mode true (fun () -> Ops.Program.run fused inputs)
  in
  Hashtbl.iter
    (fun container t_naive ->
      match Hashtbl.find_opt env_fast container with
      | None ->
          (* Fused dead intermediates are legitimately absent. *)
          ()
      | Some t_fast ->
          let d = Dense.max_abs_diff t_naive t_fast in
          if d > 1e-9 then
            Alcotest.failf "%s: container %s differs by %g" name container d)
    env_naive

let layer_inputs hp seed =
  let prng = Prng.create seed in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  ("x", x) :: ("d_y", d_y) :: params

let test_encoder_fast_vs_naive () =
  let hp = Transformer.Hparams.tiny in
  envs_agree ~name:"encoder" (Transformer.Encoder.program hp)
    Transformer.Encoder.kernel_names (layer_inputs hp 11L)

(* Decoder: GELU feed-forward and causal softmax, whose additive mask
   materializes -inf logits — the fast softmax must reproduce them. *)
let test_decoder_fast_vs_naive () =
  let hp = Transformer.Hparams.tiny in
  envs_agree ~name:"decoder" (Transformer.Decoder.program hp)
    Transformer.Decoder.kernel_names (layer_inputs hp 13L)

(* A wider, rectangular configuration (seq <> proj <> ff) so no two axis
   extents collide. *)
let test_encoder_rectangular () =
  let hp =
    { Transformer.Hparams.tiny with batch = 3; seq = 5; heads = 2; proj = 3 }
  in
  envs_agree ~name:"encoder rectangular" (Transformer.Encoder.program hp)
    Transformer.Encoder.kernel_names (layer_inputs hp 17L)

let test_dropout_masks_bitwise () =
  let hp = Transformer.Hparams.tiny in
  let program = Transformer.Encoder.program hp in
  let fused =
    Substation.Fusion.fuse ~name_table:Transformer.Encoder.kernel_names
      program
  in
  let inputs = layer_inputs hp 11L in
  let env_naive =
    Fastmode.with_naive (fun () -> Ops.Program.run program inputs)
  in
  let env_fast =
    Fastmode.with_mode true (fun () -> Ops.Program.run fused inputs)
  in
  let masks = ref 0 in
  Hashtbl.iter
    (fun container t_naive ->
      if
        container = "attn_mask"
        || (String.length container >= 4 && String.sub container 0 4 = "mask")
      then
        match Hashtbl.find_opt env_fast container with
        | None -> ()
        | Some t_fast ->
            incr masks;
            let t_fast = Dense.align t_fast t_naive in
            check_bool
              (Printf.sprintf "mask %s bitwise equal" container)
              true
              (Array.for_all2 Float.equal
                 (Dense.unsafe_data t_naive)
                 (Dense.unsafe_data t_fast)))
    env_naive;
  check_bool "at least one dropout mask compared" true (!masks > 0)

(* The counter-generated mask is the sequential [Prng.bernoulli] walk of
   the operator's stream, laid out in storage order. *)
let test_dropout_mask_is_bernoulli_walk () =
  let dims = [ ("j", 7); ("b", 3); ("i", 11) ] and p = 0.3 in
  let scale = Ops.Elementwise.dropout_keep_scale p in
  let walk = Prng.of_key 5L "drop" in
  let expect =
    Dense.init dims (fun _ -> if Prng.bernoulli walk ~p then 0.0 else scale)
  in
  let got = Ops.Elementwise.dropout_mask ~seed:5L ~name:"drop" dims ~p in
  check_bool "mask equals the sequential walk bitwise" true
    (Array.for_all2 Float.equal (Dense.unsafe_data expect)
       (Dense.unsafe_data got))

(* At p = 0 the mask skips the draws; it must still equal them bitwise. *)
let test_dropout_mask_p0_is_keep_at () =
  List.iter
    (fun dims ->
      let got =
        Dense.unsafe_data
          (Ops.Elementwise.dropout_mask ~seed:9L ~name:"drop0" dims ~p:0.0)
      in
      let state = Prng.state (Prng.of_key 9L "drop0") in
      let scale = Ops.Elementwise.dropout_keep_scale 0.0 in
      let expect = Array.mapi (fun i _ -> Prng.keep_at state i ~p:0.0 ~scale) got in
      check_bool "p = 0 mask equals the keep_at loop bitwise" true
        (Array.for_all2 Float.equal expect got))
    [
      [ ("i", 1) ];
      [ ("j", 7); ("b", 3); ("i", 11) ];
      [ ("i", 512); ("b", 2); ("j", 1) ];
    ]

let bitwise_equal a b =
  let b = Dense.align b a in
  Array.for_all2 Float.equal (Dense.unsafe_data a) (Dense.unsafe_data b)

(* Random element-wise chains, fused vs each member's naive run. Shapes
   span several of the chain kernel's 256-position tiles and end on a
   ragged one; the chain input and every operand get independently
   shuffled layouts (and each stage its own dims order, which lays out
   its dropout mask), so operand gathers take the strided walk — stride 0
   along a broadcast bias. Every container the fused group stores must
   equal the naive one bitwise, serially and on two pool domains. *)
let prop_elementwise_chains =
  QCheck.Test.make ~name:"element-wise chains" ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 4))
    (fun (seed, nstages) ->
      let prng = Prng.create (Int64.of_int seed) in
      let rank = 2 + Prng.int prng ~bound:2 in
      let names = List.filteri (fun i _ -> i < rank) [ "a"; "b"; "c" ] in
      let lo, span = if rank = 2 then (17, 74) else (5, 20) in
      let sizes =
        Array.init rank (fun _ -> lo + Prng.int prng ~bound:span)
      in
      let vol () = Array.fold_left ( * ) 1 sizes in
      (* grow the axes in turn: growing one axis alone never escapes when
         the others already multiply to a multiple of 256 *)
      let i = ref 0 in
      while vol () <= 256 || vol () mod 256 = 0 do
        sizes.(!i) <- sizes.(!i) + 1;
        i := (!i + 1) mod rank
      done;
      let dims = List.combine names (Array.to_list sizes) in
      let random_tensor ?(over = dims) () =
        let t = Dense.rand prng over ~lo:(-2.0) ~hi:2.0 in
        Dense.permute t (shuffle_list prng (Dense.axes t))
      in
      let inputs = ref [ ("x", random_tensor ()) ] in
      let operand i ?over () =
        let name = Printf.sprintf "o%d" i in
        inputs := (name, random_tensor ?over ()) :: !inputs;
        name
      in
      let members =
        List.init nstages (fun i ->
            let x = if i = 0 then "x" else Printf.sprintf "y%d" (i - 1) in
            let out = Printf.sprintf "y%d" i and name = Printf.sprintf "s%d" i in
            let d = shuffle_list prng dims in
            let module E = Ops.Elementwise in
            match Prng.int prng ~bound:7 with
            | 0 ->
                if Prng.int prng ~bound:2 = 0 then
                  let axis = List.nth names (Prng.int prng ~bound:rank) in
                  let bias =
                    operand i ~over:[ (axis, List.assoc axis dims) ] ()
                  in
                  E.bias ~name ~x ~bias ~out d ~bias_axes:[ axis ] ()
                else E.add ~name ~x ~y:(operand i ()) ~out d ()
            | 1 -> E.hadamard ~name ~x ~y:(operand i ()) ~out d ()
            | 2 -> E.relu ~name ~x ~out d ()
            | 3 -> E.gelu ~name ~x ~out d ()
            | 4 ->
                E.dropout ~name ~x ~out ~mask:(Printf.sprintf "m%d" i) d
                  ~p:0.3 ~seed:(Int64.of_int seed) ()
            | 5 -> E.relu_dx ~name ~dy:x ~x:(operand i ()) ~out d
            | _ -> E.gelu_dx ~name ~dy:x ~x:(operand i ()) ~out d)
      in
      let external_writes =
        List.filteri
          (fun i _ -> i = nstages - 1 || Prng.int prng ~bound:2 = 0)
          (List.init nstages (Printf.sprintf "y%d"))
      in
      let env_naive = Ops.Op.env_of_list !inputs in
      List.iter (fun (m : Ops.Op.t) -> m.Ops.Op.run env_naive) members;
      let fused =
        Option.get (Ops.Fastpath.compile_group ~external_writes members)
      in
      List.for_all
        (fun domains ->
          let env = Ops.Op.env_of_list !inputs in
          Pool.with_domains domains (fun () -> fused env);
          List.for_all (fun c -> Hashtbl.mem env c) external_writes
          && Hashtbl.fold
               (fun c t ok -> ok && bitwise_equal (Ops.Op.lookup env_naive c) t)
               env true)
        [ 1; 2 ])

(* Minor words allocated by the second of two calls of [f] (the first
   fills caches and arenas). *)
let minor_words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Allocation budget of the element-wise kernels, single domain: no
   per-element boxing or closure may creep back into the mask fill, the
   bias reduction, or a fused chain. *)
let test_allocation_budget () =
  Pool.with_domains 1 (fun () ->
      let dims = [ ("i", 512); ("b", 2); ("j", 64) ] in
      let n = 65_536 in
      let prng = Prng.create 41L in
      let w =
        minor_words (fun () ->
            ignore (Ops.Elementwise.dropout_mask ~seed:3L ~name:"drop" dims ~p:0.1))
      in
      check_bool
        (Printf.sprintf "%d-element dropout mask: %.0f minor words < 1000" n w)
        true (w < 1000.0);
      let dy = Dense.rand prng dims ~lo:(-1.0) ~hi:1.0 in
      let w = minor_words (fun () -> ignore (Dense.reduce_bcast dy [ "i" ])) in
      check_bool
        (Printf.sprintf "%d -> 512 reduce_bcast: %.0f minor words < 1000" n w)
        true (w < 1000.0);
      let module E = Ops.Elementwise in
      let members =
        [
          E.bias ~name:"bias" ~x:"x" ~bias:"bv" ~out:"xb" dims
            ~bias_axes:[ "i" ] ();
          E.relu ~name:"act" ~x:"xb" ~out:"xa" dims ();
          E.dropout ~name:"drop" ~x:"xa" ~out:"y" ~mask:"m" dims ~p:0.1
            ~seed:3L ();
        ]
      in
      let fused =
        Option.get (Ops.Fastpath.compile_group ~external_writes:[ "y" ] members)
      in
      let env =
        Ops.Op.env_of_list
          [
            ("x", Dense.rand prng dims ~lo:(-1.0) ~hi:1.0);
            ("bv", Dense.rand prng [ ("i", 512) ] ~lo:(-1.0) ~hi:1.0);
          ]
      in
      let w = minor_words (fun () -> fused env) in
      check_bool
        (Printf.sprintf "fused bias-relu-dropout: %.3f minor words/element < 1"
           (w /. float_of_int n))
        true
        (w /. float_of_int n < 1.0))

(* Allocation budget of a batched contraction whose operand and output
   views both need repacking (the attention-gradient shape of a BERT
   layer: 8 batches of m=16 n=64 k=64): the pack and scatter walkers may
   allocate per call, never per element. The second spec also reads its
   column operand through a non-unit inner stride. *)
let test_einsum_allocation_budget () =
  Pool.with_domains 1 (fun () ->
      let prng = Prng.create 43L in
      let hbjk =
        Dense.rand prng [ ("h", 8); ("b", 1); ("j", 64); ("k", 64) ]
          ~lo:(-1.0) ~hi:1.0
      in
      let whbj =
        Dense.rand prng [ ("w", 16); ("h", 8); ("b", 1); ("j", 64) ]
          ~lo:(-1.0) ~hi:1.0
      in
      let whbk =
        Dense.rand prng [ ("w", 16); ("h", 8); ("b", 1); ("k", 64) ]
          ~lo:(-1.0) ~hi:1.0
      in
      let n = 8 * 16 * 64 in
      List.iter
        (fun (spec, inputs) ->
          let w = minor_words (fun () -> ignore (Einsum.eval spec inputs)) in
          check_bool
            (Printf.sprintf "%s: %.3f minor words/output element < 1" spec
               (w /. float_of_int n))
            true
            (w /. float_of_int n < 1.0))
        [
          ("hbjk,whbj->whbk", [ hbjk; whbj ]);
          ("whbk,hbjk->whbj", [ whbk; hbjk ]);
        ])

(* Allocation budget of the streaming attention kernel, single domain:
   its contractions run as GEMMs over one arena borrow per work item, so
   a call allocates a few words per item and per row block, never per
   score. The decode launch is one query row per head against 40 of 64
   cached keys, the serving path's shape. *)
let test_flashattn_allocation_budget () =
  Pool.with_domains 1 (fun () ->
      let prng = Prng.create 47L in
      let rand dims = Dense.rand prng dims ~lo:(-1.0) ~hi:1.0 in
      let np = 32 and nh = 4 and l = 128 in
      let q = rand [ ("p", np); ("h", nh); ("b", 1); ("j", l) ] in
      let k = rand [ ("p", np); ("h", nh); ("b", 1); ("k", l) ] in
      let v = rand [ ("w", np); ("h", nh); ("b", 1); ("k", l) ] in
      let d_out = rand [ ("w", np); ("h", nh); ("b", 1); ("j", l) ] in
      let dropout =
        { Flashattn.p = 0.1; seed = 5L; key = "attn_dropout";
          dims = [ ("h", nh); ("b", 1); ("j", l); ("k", l) ] }
      in
      let prescale = 1.0 /. sqrt (float_of_int np) in
      let scores = float_of_int (nh * l * l) in
      List.iter
        (fun (dir, f) ->
          let w = minor_words f in
          check_bool
            (Printf.sprintf "L=%d %s: %.4f minor words/score < 0.05" l dir
               (w /. scores))
            true
            (w /. scores < 0.05))
        [
          ( "forward",
            fun () ->
              ignore
                (Flashattn.forward ~causal:true ~dropout ~prescale ~q ~k ~v ())
          );
          ( "backward",
            fun () ->
              ignore
                (Flashattn.backward ~causal:true ~dropout ~prescale ~q ~k ~v
                   ~d_out ()) );
        ];
      let q = rand [ ("p", 16); ("h", 8); ("b", 1); ("j", 1) ] in
      let k = rand [ ("p", 16); ("h", 8); ("b", 1); ("k", 64) ] in
      let v = rand [ ("w", 16); ("h", 8); ("b", 1); ("k", 64) ] in
      let w =
        minor_words (fun () ->
            ignore (Flashattn.forward ~valid:[| 40 |] ~prescale:0.25 ~q ~k ~v ()))
      in
      check_bool
        (Printf.sprintf "decode launch: %.0f minor words < 2000" w)
        true (w < 2000.0))

(* ---------------- standalone reduction kernels ---------------- *)

(* [members] run on fresh environments over [inputs], through their fused
   kernel ([Fastpath.compile_group]) and through each member's naive
   [run]: the [outs] containers of both runs. *)
let kernel_and_naive members ~inputs ~outs =
  let run f =
    let env = Ops.Op.env_of_list inputs in
    f env;
    List.map (Ops.Op.lookup env) outs
  in
  let fused =
    Option.get (Ops.Fastpath.compile_group ~external_writes:outs members)
  in
  (run fused, run (fun env -> List.iter (fun (m : Ops.Op.t) -> m.run env) members))

let all_within tol (a, b) =
  List.for_all2 (fun a b -> Dense.max_abs_diff a b <= tol) a b

(* Softmax over a permuted-layout input with explicit -inf entries (an
   additive mask applied upstream), fused kernel vs naive. *)
let prop_softmax_masked_layouts =
  QCheck.Test.make
    ~name:"softmax kernel: permuted layouts and -inf entries" ~count:40
    QCheck.(pair (int_range 2 6) (int_range 2 6))
    (fun (j, k) ->
      let prng = Prng.create (Int64.of_int ((j * 131) + k)) in
      let dims = [ ("h", 2); ("j", j); ("k", k) ] in
      let x = Dense.rand prng dims ~lo:(-2.0) ~hi:2.0 in
      (* Mask a strict minority of each row to -inf (never the whole row). *)
      let x =
        Dense.init dims (fun idx ->
            let kv = List.assoc "k" idx in
            if kv > 0 && (kv + List.assoc "j" idx) mod 3 = 0 then neg_infinity
            else Dense.get x idx)
      in
      let x = Dense.permute x (shuffle_list prng (Dense.axes x)) in
      let op =
        Ops.Normalization.softmax ~name:"sm" ~x:"x" ~out:"y" dims ~axis:"k"
          ~prescale:0.5 ()
      in
      all_within 1e-9 (kernel_and_naive [ op ] ~inputs:[ ("x", x) ] ~outs:[ "y" ]))

(* Causal softmax over a permuted layout: the kernel derives each row's
   query index from the row number, whichever outer axis the query is. *)
let prop_softmax_causal_layouts =
  QCheck.Test.make ~name:"causal softmax kernel: permuted layouts" ~count:40
    QCheck.(pair (int_range 2 6) (int_range 1 3))
    (fun (l, b) ->
      let prng = Prng.create (Int64.of_int ((l * 17) + b)) in
      let dims = [ ("h", 2); ("j", l); ("b", b); ("k", l) ] in
      let x = Dense.rand prng dims ~lo:(-2.0) ~hi:2.0 in
      let x = Dense.permute x (shuffle_list prng (Dense.axes x)) in
      let op =
        Ops.Normalization.softmax ~name:"sm" ~x:"x" ~out:"y" dims ~axis:"k"
          ~prescale:0.5 ~causal:("j", "k") ()
      in
      all_within 0.0 (kernel_and_naive [ op ] ~inputs:[ ("x", x) ] ~outs:[ "y" ]))

let prop_layernorm_layouts =
  QCheck.Test.make ~name:"layernorm kernel family over permuted layouts"
    ~count:40
    QCheck.(pair (int_range 2 8) (int_range 2 6))
    (fun (i, b) ->
      let prng = Prng.create (Int64.of_int ((i * 257) + b)) in
      let dims = [ ("i", i); ("b", b); ("j", 3) ] in
      let x = Dense.rand prng dims ~lo:(-2.0) ~hi:2.0 in
      let x = Dense.permute x (shuffle_list prng (Dense.axes x)) in
      let gamma = Dense.rand prng [ ("i", i) ] ~lo:0.5 ~hi:1.5 in
      let beta = Dense.rand prng [ ("i", i) ] ~lo:(-0.5) ~hi:0.5 in
      let dy = Dense.rand prng dims ~lo:(-1.0) ~hi:1.0 in
      let dy = Dense.permute dy (shuffle_list prng (Dense.axes dy)) in
      let fwd =
        Ops.Normalization.layernorm ~name:"ln" ~x:"x" ~gamma:"g" ~beta:"be"
          ~out:"y" ~mean:"m" ~istd:"s" dims ~axis:"i" ~eps:1e-5 ()
      in
      let dx =
        Ops.Normalization.layernorm_dx ~name:"ln_dx" ~dy:"dy" ~x:"x" ~gamma:"g"
          ~mean:"m" ~istd:"s" ~out:"dx" dims ~axis:"i"
      in
      let dw =
        Ops.Normalization.layernorm_dw ~name:"ln_dw" ~dy:"dy" ~x:"x" ~mean:"m"
          ~istd:"s" ~dgamma:"dg" ~dbeta:"db" dims ~axis:"i"
      in
      all_within 1e-9
        (kernel_and_naive [ fwd; dx; dw ]
           ~inputs:[ ("x", x); ("g", gamma); ("be", beta); ("dy", dy) ]
           ~outs:[ "y"; "m"; "s"; "dx"; "dg"; "db" ]))

let () =
  Alcotest.run "fastpath"
    [
      ( "gemm",
        [
          q prop_gemm_matches_triple_loop;
          q prop_gemm_panels_remainders_offsets;
          Alcotest.test_case "narrow allocation budget" `Quick
            test_gemm_narrow_allocation;
          Alcotest.test_case "one buffer as A, B and C" `Quick
            test_gemm_aliased_buffer;
          Alcotest.test_case "workload shapes at 1 and 2 domains" `Quick
            test_gemm_workload_shapes;
        ] );
      ( "einsum",
        [
          q prop_einsum_matmul_layouts;
          q prop_einsum_non_gemm;
          Alcotest.test_case "corner shapes" `Quick test_einsum_corner_shapes;
          Alcotest.test_case "parse memoized" `Quick test_parse_memoized;
        ] );
      ( "fused programs",
        [
          Alcotest.test_case "encoder fast=naive" `Quick
            test_encoder_fast_vs_naive;
          Alcotest.test_case "decoder fast=naive (causal -inf)" `Quick
            test_decoder_fast_vs_naive;
          Alcotest.test_case "rectangular encoder" `Quick
            test_encoder_rectangular;
          Alcotest.test_case "dropout masks bitwise" `Quick
            test_dropout_masks_bitwise;
          Alcotest.test_case "dropout mask is the bernoulli walk" `Quick
            test_dropout_mask_is_bernoulli_walk;
          Alcotest.test_case "dropout mask at p = 0 is the keep_at loop" `Quick
            test_dropout_mask_p0_is_keep_at;
        ] );
      ( "chain kernels",
        [
          q prop_elementwise_chains;
          Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
          Alcotest.test_case "einsum allocation budget" `Quick
            test_einsum_allocation_budget;
          Alcotest.test_case "flashattn allocation budget" `Quick
            test_flashattn_allocation_budget;
        ] );
      ( "reduction kernels",
        [
          q prop_softmax_masked_layouts;
          q prop_softmax_causal_layouts;
          q prop_layernorm_layouts;
        ] );
    ]

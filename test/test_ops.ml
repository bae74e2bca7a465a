(* Tests for the operator zoo: iteration spaces, element-wise operators,
   statistical normalizations, tensor contractions, and programs — forward
   semantics against direct computation and backward passes against finite
   differences. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let seed = 0xABCDL
let prng () = Prng.create 314L

let dims_ubj = [ ("u", 5); ("b", 2); ("j", 3) ]

let env_with bindings = Ops.Op.env_of_list bindings

(* ---------------- iteration spaces ---------------- *)

let map_space dims = Ops.Iteration.pure_map dims

let red_space ~independent ~reduction =
  Ops.Iteration.make ~independent ~reduction

let test_iteration_points () =
  let s = red_space ~independent:[ ("b", 2); ("j", 3) ] ~reduction:[ ("i", 4) ] in
  check_int "points" 24 (Ops.Iteration.points s);
  check_bool "has reduction" true (Ops.Iteration.has_reduction s);
  check_bool "map has none" false
    (Ops.Iteration.has_reduction (map_space [ ("i", 4) ]))

let test_iteration_compatible_same () =
  let a = map_space [ ("i", 4); ("b", 2) ] in
  let b = map_space [ ("b", 2); ("i", 4) ] in
  check_bool "maps with equal extents fuse (any order)" true
    (Ops.Iteration.compatible ~a ~b)

let test_iteration_compatible_reduction () =
  (* map over [i,b,j] feeding layernorm reducing over i (the BDRLN case) *)
  let m = map_space [ ("i", 4); ("b", 2); ("j", 3) ] in
  let ln = red_space ~independent:[ ("b", 2); ("j", 3) ] ~reduction:[ ("i", 4) ] in
  check_bool "map + reduction fuse" true (Ops.Iteration.compatible ~a:m ~b:ln);
  check_bool "symmetric" true (Ops.Iteration.compatible ~a:ln ~b:m);
  match Ops.Iteration.merge ~a:m ~b:ln with
  | Some merged -> check_bool "merge keeps reduction" true (Ops.Iteration.has_reduction merged)
  | None -> Alcotest.fail "expected merge"

let test_iteration_incompatible () =
  (* layernorm dW (ind i, red b,j) vs layernorm dX (ind b,j, red i): the
     reason BSB and BLNRD stay separate kernels *)
  let dw = red_space ~independent:[ ("i", 4) ] ~reduction:[ ("b", 2); ("j", 3) ] in
  let dx = red_space ~independent:[ ("b", 2); ("j", 3) ] ~reduction:[ ("i", 4) ] in
  check_bool "different reductions do not fuse" false
    (Ops.Iteration.compatible ~a:dw ~b:dx);
  check_bool "merge refuses" true (Ops.Iteration.merge ~a:dw ~b:dx = None);
  (* different extents do not fuse *)
  let m1 = map_space [ ("i", 4) ] and m2 = map_space [ ("i", 5) ] in
  check_bool "extent mismatch" false (Ops.Iteration.compatible ~a:m1 ~b:m2)

let test_iteration_sibling_bias () =
  (* AIB: biases over [p,h,b,j] and [w,h,b,k] fuse because P=W and J=K *)
  let q = map_space [ ("p", 4); ("h", 2); ("b", 2); ("j", 3) ] in
  let v = map_space [ ("w", 4); ("h", 2); ("b", 2); ("k", 3) ] in
  check_bool "size-isomorphic siblings fuse" true (Ops.Iteration.compatible ~a:q ~b:v)

(* ---------------- element-wise ---------------- *)

let test_bias () =
  let p = prng () in
  let x = Dense.rand p dims_ubj ~lo:(-1.0) ~hi:1.0 in
  let b = Dense.rand p [ ("u", 5) ] ~lo:(-1.0) ~hi:1.0 in
  let op =
    Ops.Elementwise.bias ~name:"bias" ~x:"x" ~bias:"b" ~out:"y" dims_ubj
      ~bias_axes:[ "u" ] ()
  in
  let env = env_with [ ("x", x); ("b", b) ] in
  op.Ops.Op.run env;
  check_bool "bias result" true
    (Dense.approx_equal (Ops.Op.lookup env "y") (Dense.add_bcast x b));
  check_bool "class" true (op.Ops.Op.cls = Sdfg.Opclass.Elementwise);
  check_int "flop" 30 op.Ops.Op.flop

let test_bias_dw () =
  let p = prng () in
  let dy = Dense.rand p dims_ubj ~lo:(-1.0) ~hi:1.0 in
  let op =
    Ops.Elementwise.bias_dw ~name:"bias_dw" ~dy:"dy" ~out:"db" dims_ubj
      ~bias_axes:[ "u" ]
  in
  let env = env_with [ ("dy", dy) ] in
  op.Ops.Op.run env;
  check_bool "bias grad reduces b,j" true
    (Dense.approx_equal (Ops.Op.lookup env "db") (Dense.sum_over dy [ "b"; "j" ]));
  check_bool "classified as normalization (Table III)" true
    (op.Ops.Op.cls = Sdfg.Opclass.Normalization);
  check_bool "backward" true op.Ops.Op.backward

let test_relu_and_dx () =
  let x = Dense.of_flat [ ("a", 4) ] [| -2.0; -0.5; 0.5; 2.0 |] in
  let env = env_with [ ("x", x) ] in
  (Ops.Elementwise.relu ~name:"r" ~x:"x" ~out:"y" [ ("a", 4) ] ()).Ops.Op.run env;
  check_bool "relu" true
    (Dense.approx_equal (Ops.Op.lookup env "y")
       (Dense.of_flat [ ("a", 4) ] [| 0.0; 0.0; 0.5; 2.0 |]));
  Ops.Op.store env "dy" (Dense.full [ ("a", 4) ] 1.0);
  (Ops.Elementwise.relu_dx ~name:"rdx" ~dy:"dy" ~x:"x" ~out:"dx" [ ("a", 4) ])
    .Ops.Op.run env;
  check_bool "relu dx is the 0/1 gate" true
    (Dense.approx_equal (Ops.Op.lookup env "dx")
       (Dense.of_flat [ ("a", 4) ] [| 0.0; 0.0; 1.0; 1.0 |]))

let test_gelu_gradient () =
  (* gelu_grad matches finite differences of gelu_value *)
  let p = prng () in
  for _ = 1 to 50 do
    let x = Prng.uniform p ~lo:(-3.0) ~hi:3.0 in
    let eps = 1e-6 in
    let fd =
      (Ops.Elementwise.gelu_value (x +. eps) -. Ops.Elementwise.gelu_value (x -. eps))
      /. (2.0 *. eps)
    in
    check_bool "gelu grad vs fd" true
      (Float.abs (fd -. Ops.Elementwise.gelu_grad x) < 1e-5)
  done;
  (* landmark values *)
  check_bool "gelu(0)=0" true (Ops.Elementwise.gelu_value 0.0 = 0.0);
  check_bool "gelu(large)~x" true
    (Float.abs (Ops.Elementwise.gelu_value 10.0 -. 10.0) < 1e-6);
  check_bool "gelu(-large)~0" true
    (Float.abs (Ops.Elementwise.gelu_value (-10.0)) < 1e-6)

let test_dropout_determinism () =
  let p = prng () in
  let x = Dense.rand p dims_ubj ~lo:1.0 ~hi:2.0 in
  let run () =
    let env = env_with [ ("x", x) ] in
    (Ops.Elementwise.dropout ~name:"drop" ~x:"x" ~out:"y" ~mask:"m" dims_ubj
       ~p:0.3 ~seed ())
      .Ops.Op.run env;
    (Ops.Op.lookup env "y", Ops.Op.lookup env "m")
  in
  let y1, m1 = run () in
  let y2, m2 = run () in
  check_bool "mask deterministic" true (Dense.approx_equal m1 m2);
  check_bool "output deterministic" true (Dense.approx_equal y1 y2);
  (* mask values are 0 or 1/(1-p) *)
  let keep = Ops.Elementwise.dropout_keep_scale 0.3 in
  Dense.iter m1 (fun _ v ->
      if v <> 0.0 && Float.abs (v -. keep) > 1e-12 then
        Alcotest.fail "mask value neither 0 nor 1/(1-p)")

let test_dropout_rate () =
  let x = Dense.full [ ("a", 20000) ] 1.0 in
  let env = env_with [ ("x", x) ] in
  (Ops.Elementwise.dropout ~name:"rate" ~x:"x" ~out:"y" ~mask:"m" [ ("a", 20000) ]
     ~p:0.25 ~seed ())
    .Ops.Op.run env;
  let zeros = ref 0 in
  Dense.iter (Ops.Op.lookup env "m") (fun _ v -> if v = 0.0 then incr zeros);
  let rate = float_of_int !zeros /. 20000.0 in
  check_bool "drop rate ~ p" true (Float.abs (rate -. 0.25) < 0.02)

let test_dropout_dx () =
  let p = prng () in
  let x = Dense.rand p dims_ubj ~lo:(-1.0) ~hi:1.0 in
  let dy = Dense.rand p dims_ubj ~lo:(-1.0) ~hi:1.0 in
  let env = env_with [ ("x", x); ("dy", dy) ] in
  (Ops.Elementwise.dropout ~name:"d" ~x:"x" ~out:"y" ~mask:"m" dims_ubj ~p:0.4
     ~seed ())
    .Ops.Op.run env;
  (Ops.Elementwise.dropout_dx ~name:"ddx" ~dy:"dy" ~mask:"m" ~out:"dx" dims_ubj
     ~p:0.4)
    .Ops.Op.run env;
  check_bool "dx = dy * mask" true
    (Dense.approx_equal (Ops.Op.lookup env "dx")
       (Dense.mul dy (Ops.Op.lookup env "m")))

let test_dropout_rejects_bad_p () =
  check_bool "p = 1 rejected" true
    (try
       ignore (Ops.Elementwise.dropout_keep_scale 1.0);
       false
     with Invalid_argument _ -> true)

let test_add_copy () =
  let p = prng () in
  let x = Dense.rand p dims_ubj ~lo:(-1.0) ~hi:1.0 in
  let y = Dense.rand p dims_ubj ~lo:(-1.0) ~hi:1.0 in
  let env = env_with [ ("x", x); ("y", y) ] in
  (Ops.Elementwise.add ~name:"a" ~x:"x" ~y:"y" ~out:"s" dims_ubj ()).Ops.Op.run env;
  check_bool "residual add" true
    (Dense.approx_equal (Ops.Op.lookup env "s") (Dense.add x y));
  (Ops.Elementwise.copy ~name:"c" ~x:"x" ~out:"x2" dims_ubj ()).Ops.Op.run env;
  check_bool "copy" true (Dense.approx_equal (Ops.Op.lookup env "x2") x)

(* ---------------- normalizations ---------------- *)

let dims_hbjk = [ ("h", 2); ("b", 2); ("j", 3); ("k", 3) ]

let test_softmax_properties () =
  let p = prng () in
  let x = Dense.rand p dims_hbjk ~lo:(-5.0) ~hi:5.0 in
  let env = env_with [ ("x", x) ] in
  (Ops.Normalization.softmax ~name:"sm" ~x:"x" ~out:"y" dims_hbjk ~axis:"k" ())
    .Ops.Op.run env;
  let y = Ops.Op.lookup env "y" in
  let sums = Dense.sum_over y [ "k" ] in
  Dense.iter sums (fun _ v ->
      if Float.abs (v -. 1.0) > 1e-9 then Alcotest.fail "softmax rows must sum to 1");
  Dense.iter y (fun _ v ->
      if v < 0.0 || v > 1.0 then Alcotest.fail "softmax values in [0,1]")

let test_softmax_stability () =
  (* huge inputs must not overflow thanks to max subtraction *)
  let x = Dense.of_flat [ ("k", 3) ] [| 1e4; 1e4 +. 1.0; 1e4 -. 1.0 |] in
  let env = env_with [ ("x", x) ] in
  (Ops.Normalization.softmax ~name:"sm" ~x:"x" ~out:"y" [ ("k", 3) ] ~axis:"k" ())
    .Ops.Op.run env;
  Dense.iter (Ops.Op.lookup env "y") (fun _ v ->
      if not (Float.is_finite v) then Alcotest.fail "softmax overflowed")

let test_softmax_prescale_equivalence () =
  (* softmax with prescale s == softmax of (s * x): the algebraic identity
     that lets the recipe move the attention scaling into the contraction *)
  let p = prng () in
  let x = Dense.rand p dims_hbjk ~lo:(-2.0) ~hi:2.0 in
  let s = 0.5 in
  let env = env_with [ ("x", x); ("xs", Dense.scale s x) ] in
  (Ops.Normalization.softmax ~name:"a" ~x:"x" ~out:"ya" dims_hbjk ~axis:"k"
     ~prescale:s ())
    .Ops.Op.run env;
  (Ops.Normalization.softmax ~name:"b" ~x:"xs" ~out:"yb" dims_hbjk ~axis:"k" ())
    .Ops.Op.run env;
  check_bool "prescale equivalence" true
    (Dense.approx_equal (Ops.Op.lookup env "ya") (Ops.Op.lookup env "yb"))

let test_softmax_dx_finite_diff () =
  let p = prng () in
  let dims = [ ("b", 2); ("k", 4) ] in
  let x = Dense.rand p dims ~lo:(-1.0) ~hi:1.0 in
  let loss_w = Dense.rand p dims ~lo:(-1.0) ~hi:1.0 in
  let fwd xv =
    let env = env_with [ ("x", xv) ] in
    (Ops.Normalization.softmax ~name:"sm" ~x:"x" ~out:"y" dims ~axis:"k"
       ~prescale:0.7 ())
      .Ops.Op.run env;
    Ops.Op.lookup env "y"
  in
  let loss xv = Dense.sum_all (Dense.mul (fwd xv) loss_w) in
  let env = env_with [ ("x", x); ("dy", loss_w) ] in
  Ops.Op.store env "y" (fwd x);
  (Ops.Normalization.softmax_dx ~name:"smdx" ~dy:"dy" ~y:"y" ~out:"dx" dims
     ~axis:"k" ~prescale:0.7 ())
    .Ops.Op.run env;
  let ok, err =
    Autodiff_check.check ~tol:1e-5 ~f:loss ~grad:(Ops.Op.lookup env "dx") x
  in
  check_bool (Printf.sprintf "softmax dx vs fd (err %.2e)" err) true ok

let test_causal_softmax () =
  let dims = [ ("j", 4); ("k", 4) ] in
  let p = prng () in
  let x = Dense.rand p dims ~lo:(-1.0) ~hi:1.0 in
  let env = env_with [ ("x", x) ] in
  (Ops.Normalization.softmax ~name:"csm" ~x:"x" ~out:"y" dims ~axis:"k"
     ~causal:("j", "k") ())
    .Ops.Op.run env;
  let y = Ops.Op.lookup env "y" in
  for j = 0 to 3 do
    for k = 0 to 3 do
      let v = Dense.get y [ ("j", j); ("k", k) ] in
      if k > j then check_float "future masked" 0.0 v
    done
  done;
  let sums = Dense.sum_over y [ "k" ] in
  Dense.iter sums (fun _ v ->
      if Float.abs (v -. 1.0) > 1e-9 then Alcotest.fail "causal rows sum to 1")

let dims_ibj = [ ("i", 6); ("b", 2); ("j", 3) ]

let layernorm_env () =
  let p = prng () in
  let x = Dense.rand p dims_ibj ~lo:(-2.0) ~hi:2.0 in
  let g = Dense.rand p [ ("i", 6) ] ~lo:0.5 ~hi:1.5 in
  let bta = Dense.rand p [ ("i", 6) ] ~lo:(-0.5) ~hi:0.5 in
  (x, g, bta)

let run_layernorm x g bta =
  let env = env_with [ ("x", x); ("g", g); ("bt", bta) ] in
  (Ops.Normalization.layernorm ~name:"ln" ~x:"x" ~gamma:"g" ~beta:"bt" ~out:"y"
     ~mean:"mu" ~istd:"si" dims_ibj ~axis:"i" ())
    .Ops.Op.run env;
  env

let test_layernorm_statistics () =
  let x, g, bta = layernorm_env () in
  let env = run_layernorm x (Dense.full [ ("i", 6) ] 1.0) (Dense.zeros [ ("i", 6) ]) in
  ignore g;
  ignore bta;
  let y = Ops.Op.lookup env "y" in
  (* with identity affine, output has ~zero mean and ~unit variance over i *)
  let mean = Dense.mean_over y [ "i" ] in
  Dense.iter mean (fun _ v ->
      if Float.abs v > 1e-9 then Alcotest.fail "normalized mean not ~0");
  let var = Dense.mean_over (Dense.mul y y) [ "i" ] in
  Dense.iter var (fun _ v ->
      if Float.abs (v -. 1.0) > 1e-3 then Alcotest.fail "normalized var not ~1")

let test_layernorm_affine () =
  let x, g, bta = layernorm_env () in
  let env = run_layernorm x g bta in
  let env_id = run_layernorm x (Dense.full [ ("i", 6) ] 1.0) (Dense.zeros [ ("i", 6) ]) in
  let expected =
    Dense.add_bcast (Dense.mul_bcast (Ops.Op.lookup env_id "y") g) bta
  in
  check_bool "affine applied" true
    (Dense.approx_equal ~rtol:1e-9 ~atol:1e-9 (Ops.Op.lookup env "y") expected)

let test_layernorm_dx_finite_diff () =
  let x, g, bta = layernorm_env () in
  let p = prng () in
  let w = Dense.rand p dims_ibj ~lo:(-1.0) ~hi:1.0 in
  let loss xv =
    let env = run_layernorm xv g bta in
    Dense.sum_all (Dense.mul (Ops.Op.lookup env "y") w)
  in
  let env = run_layernorm x g bta in
  Ops.Op.store env "dy" w;
  (Ops.Normalization.layernorm_dx ~name:"lndx" ~dy:"dy" ~x:"x" ~gamma:"g"
     ~mean:"mu" ~istd:"si" ~out:"dx" dims_ibj ~axis:"i")
    .Ops.Op.run env;
  let ok, err = Autodiff_check.check ~tol:1e-4 ~f:loss ~grad:(Ops.Op.lookup env "dx") x in
  check_bool (Printf.sprintf "layernorm dx vs fd (err %.2e)" err) true ok

let test_layernorm_dw_finite_diff () =
  let x, g, bta = layernorm_env () in
  let p = prng () in
  let w = Dense.rand p dims_ibj ~lo:(-1.0) ~hi:1.0 in
  let env = run_layernorm x g bta in
  Ops.Op.store env "dy" w;
  (Ops.Normalization.layernorm_dw ~name:"lndw" ~dy:"dy" ~x:"x" ~mean:"mu"
     ~istd:"si" ~dgamma:"dg" ~dbeta:"db" dims_ibj ~axis:"i")
    .Ops.Op.run env;
  let loss_g gv =
    let env = run_layernorm x gv bta in
    Dense.sum_all (Dense.mul (Ops.Op.lookup env "y") w)
  in
  let ok_g, err_g =
    Autodiff_check.check ~tol:1e-4 ~f:loss_g ~grad:(Ops.Op.lookup env "dg") g
  in
  check_bool (Printf.sprintf "dgamma vs fd (err %.2e)" err_g) true ok_g;
  let loss_b bv =
    let env = run_layernorm x g bv in
    Dense.sum_all (Dense.mul (Ops.Op.lookup env "y") w)
  in
  let ok_b, err_b =
    Autodiff_check.check ~tol:1e-4 ~f:loss_b ~grad:(Ops.Op.lookup env "db") bta
  in
  check_bool (Printf.sprintf "dbeta vs fd (err %.2e)" err_b) true ok_b

(* ---------------- contractions ---------------- *)

let hp = Transformer.Hparams.bert_large
let dims = Transformer.Hparams.dims hp

let find_op name ops = List.find (fun (o : Ops.Op.t) -> o.Ops.Op.name = name) ops

let test_roles_inference () =
  let ops = Transformer.Encoder.forward_ops hp in
  let roles name =
    match (find_op name ops).Ops.Op.kind with
    | Ops.Op.Gemm r -> r
    | _ -> Alcotest.failf "%s is not a contraction" name
  in
  let r = roles "qkt" in
  Alcotest.(check (list string)) "qkt batch" [ "h"; "b" ] r.Ops.Op.batch_axes;
  Alcotest.(check (list string)) "qkt k" [ "p" ] r.Ops.Op.k_axes;
  Alcotest.(check (list string)) "qkt m" [ "k" ] r.Ops.Op.m_axes;
  Alcotest.(check (list string)) "qkt n" [ "j" ] r.Ops.Op.n_axes;
  let r = roles "out" in
  Alcotest.(check (list string)) "out k" [ "w"; "h" ] r.Ops.Op.k_axes;
  Alcotest.(check (list string)) "out m" [ "i" ] r.Ops.Op.m_axes

let test_gemm_shapes_match_fig4 () =
  (* Fig. 4 tile labels give the exact GEMM shapes of the encoder *)
  let ops = Transformer.Encoder.forward_ops hp @ Transformer.Encoder.backward_ops hp in
  let shape name = Ops.Contraction.gemm_shape_of (find_op name ops) ~dims in
  let check name expected =
    let m, n, k, b = shape name in
    Alcotest.(check (list int)) name expected [ m; n; k; b ]
  in
  check "qkv" [ 3072; 4096; 1024; 1 ];
  check "qkt" [ 512; 512; 64; 128 ];
  check "gamma" [ 64; 512; 512; 128 ];
  check "out" [ 1024; 4096; 1024; 1 ];
  check "lin1" [ 4096; 4096; 1024; 1 ];
  check "lin2" [ 1024; 4096; 4096; 1 ];
  check "qkv_dx" [ 1024; 4096; 3072; 1 ];
  check "qkv_dw" [ 1024; 3072; 4096; 1 ]

let test_grouped_flop () =
  let ops = Transformer.Encoder.forward_ops hp in
  let qkv = find_op "qkv" ops in
  (* 2 * 3 * PH * BJ * I = 2*3072*4096*1024 *)
  check_int "qkv flop" (2 * 3072 * 4096 * 1024) qkv.Ops.Op.flop

let test_contraction_errors () =
  check_bool "non-gemm einsum rejected" true
    (try
       ignore
         (Ops.Contraction.einsum ~name:"bad" ~dims:[ ("a", 2); ("b", 2) ]
            (Ops.Contraction.part ~spec:"ab,b->b" ~inputs:[ "x"; "y" ]
               ~output:"z" ())
            ());
       (* axis a appears only in one tensor -> rejected *)
       false
     with Invalid_argument _ -> true);
  check_bool "empty grouped rejected" true
    (try
       ignore
         (Ops.Contraction.grouped ~name:"bad" ~dims:[]
            ~group_role:Ops.Contraction.Group_n [] ());
       false
     with Invalid_argument _ -> true)

let test_accumulate_semantics () =
  (* grouped accumulate = the left-to-right Dense.add fold of the
     individual einsums, bit for bit; the third part writes "c" in
     another storage order, so it is aligned before it is summed *)
  let small = [ ("m", 2); ("k", 3); ("n", 2) ] in
  let p = prng () in
  let a1 = Dense.rand p [ ("m", 2); ("k", 3) ] ~lo:(-1.0) ~hi:1.0 in
  let a2 = Dense.rand p [ ("m", 2); ("k", 3) ] ~lo:(-1.0) ~hi:1.0 in
  let a3 = Dense.rand p [ ("m", 2); ("k", 3) ] ~lo:(-1.0) ~hi:1.0 in
  let b = Dense.rand p [ ("k", 3); ("n", 2) ] ~lo:(-1.0) ~hi:1.0 in
  let op =
    Ops.Contraction.grouped ~name:"acc" ~dims:small
      ~group_role:Ops.Contraction.Group_k ~accumulate:true
      [
        Ops.Contraction.part ~spec:"mk,kn->mn" ~inputs:[ "a1"; "b" ] ~output:"c" ();
        Ops.Contraction.part ~spec:"mk,kn->mn" ~inputs:[ "a2"; "b" ] ~output:"c" ();
        Ops.Contraction.part ~spec:"mk,kn->nm" ~inputs:[ "a3"; "b" ] ~output:"c" ();
      ]
      ()
  in
  let env = env_with [ ("a1", a1); ("a2", a2); ("a3", a3); ("b", b) ] in
  op.Ops.Op.run env;
  let expected =
    List.fold_left Dense.add
      (Einsum.eval "mk,kn->mn" [ a1; b ])
      [ Einsum.eval "mk,kn->mn" [ a2; b ]; Einsum.eval "mk,kn->nm" [ a3; b ] ]
  in
  let got = Ops.Op.lookup env "c" in
  check_bool "accumulate sums parts" true (Dense.approx_equal got expected);
  check_bool "accumulate is bitwise the Dense.add fold" true
    (Dense.layout got = Dense.layout expected
    && Array.for_all2
         (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         (Dense.unsafe_data got) (Dense.unsafe_data expected))

(* ---------------- program ---------------- *)

let test_program_validate () =
  let p = Transformer.Encoder.program Transformer.Hparams.tiny in
  check_bool "encoder program validates" true (Ops.Program.validate p = Ok ());
  check_int "forward + backward = all" (List.length p.Ops.Program.ops)
    (List.length (Ops.Program.forward_ops p) + List.length (Ops.Program.backward_ops p))

let test_program_missing_container () =
  let bad =
    Ops.Program.make ~containers:[ ("x", [ ("a", 2) ]) ]
      [ Ops.Elementwise.copy ~name:"c" ~x:"x" ~out:"nope" [ ("a", 2) ] () ]
  in
  check_bool "undeclared container detected" true (Ops.Program.validate bad <> Ok ())

let () =
  Alcotest.run "ops"
    [
      ( "iteration",
        [
          Alcotest.test_case "points" `Quick test_iteration_points;
          Alcotest.test_case "same extents fuse" `Quick test_iteration_compatible_same;
          Alcotest.test_case "map + reduction fuse" `Quick
            test_iteration_compatible_reduction;
          Alcotest.test_case "incompatible spaces" `Quick test_iteration_incompatible;
          Alcotest.test_case "isomorphic siblings (AIB)" `Quick
            test_iteration_sibling_bias;
        ] );
      ( "elementwise",
        [
          Alcotest.test_case "bias" `Quick test_bias;
          Alcotest.test_case "bias dW" `Quick test_bias_dw;
          Alcotest.test_case "relu + dx" `Quick test_relu_and_dx;
          Alcotest.test_case "gelu gradient" `Quick test_gelu_gradient;
          Alcotest.test_case "dropout determinism" `Quick test_dropout_determinism;
          Alcotest.test_case "dropout rate" `Quick test_dropout_rate;
          Alcotest.test_case "dropout dx" `Quick test_dropout_dx;
          Alcotest.test_case "dropout rejects p=1" `Quick test_dropout_rejects_bad_p;
          Alcotest.test_case "add / copy" `Quick test_add_copy;
        ] );
      ( "normalization",
        [
          Alcotest.test_case "softmax properties" `Quick test_softmax_properties;
          Alcotest.test_case "softmax stability" `Quick test_softmax_stability;
          Alcotest.test_case "prescale equivalence" `Quick
            test_softmax_prescale_equivalence;
          Alcotest.test_case "softmax dx vs finite differences" `Quick
            test_softmax_dx_finite_diff;
          Alcotest.test_case "causal masking" `Quick test_causal_softmax;
          Alcotest.test_case "layernorm statistics" `Quick test_layernorm_statistics;
          Alcotest.test_case "layernorm affine" `Quick test_layernorm_affine;
          Alcotest.test_case "layernorm dx vs finite differences" `Quick
            test_layernorm_dx_finite_diff;
          Alcotest.test_case "layernorm dw vs finite differences" `Quick
            test_layernorm_dw_finite_diff;
        ] );
      ( "contraction",
        [
          Alcotest.test_case "GEMM role inference" `Quick test_roles_inference;
          Alcotest.test_case "encoder GEMM shapes (Fig. 4)" `Quick
            test_gemm_shapes_match_fig4;
          Alcotest.test_case "grouped flop" `Quick test_grouped_flop;
          Alcotest.test_case "errors" `Quick test_contraction_errors;
          Alcotest.test_case "accumulate semantics" `Quick test_accumulate_semantics;
        ] );
      ( "program",
        [
          Alcotest.test_case "encoder validates" `Quick test_program_validate;
          Alcotest.test_case "missing container" `Quick test_program_missing_container;
        ] );
    ]

(* Tests for the transformer workload: encoder/decoder programs against the
   direct reference and finite differences, algebraic-fusion variants, MHA,
   parameters, the stacked model and the training loop. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tiny = Transformer.Hparams.tiny

let setup ?(seed = 99L) hp =
  let prng = Prng.create seed in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  (params, x, d_y)

(* ---------------- hparams ---------------- *)

let test_hparams () =
  check_bool "bert-large valid" true
    (Transformer.Hparams.validate Transformer.Hparams.bert_large = Ok ());
  check_bool "tiny valid" true (Transformer.Hparams.validate tiny = Ok ());
  check_bool "b96 differs" true
    (Transformer.Hparams.bert_large_b96.Transformer.Hparams.batch = 96);
  check_bool "bad proj*heads rejected" true
    (Transformer.Hparams.validate
       { tiny with Transformer.Hparams.proj = 3 }
    <> Ok ());
  let s = Transformer.Hparams.scaler Transformer.Hparams.bert_large in
  check_bool "scaler = 1/8" true (Float.abs (s -. 0.125) < 1e-12);
  Alcotest.(check (list (pair string int)))
    "dims_x" [ ("i", 8); ("b", 2); ("j", 3) ] (Transformer.Hparams.dims_x tiny)

(* ---------------- params ---------------- *)

let test_params_init () =
  let p1 = Transformer.Params.init tiny in
  let p2 = Transformer.Params.init tiny in
  check_int "all parameters present"
    (List.length Transformer.Encoder.param_names)
    (List.length p1);
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      check_bool (n1 ^ " deterministic") true
        (n1 = n2 && Dense.approx_equal v1 v2))
    p1 p2;
  check_bool "ln gains start at one" true
    (Dense.approx_equal (List.assoc "ln1_g" p1)
       (Dense.full [ ("i", 8) ] 1.0));
  check_bool "biases start at zero" true
    (Dense.approx_equal (List.assoc "b1" p1) (Dense.zeros [ ("u", 16) ]))

(* ---------------- encoder forward ---------------- *)

let test_encoder_matches_reference () =
  List.iter
    (fun p_drop ->
      let hp = Transformer.Hparams.with_dropout tiny p_drop in
      let params, x, d_y = setup hp in
      let env = Transformer.Encoder.run hp ~x ~d_y ~params in
      let ref_ = Transformer.Reference.forward hp ~x ~params in
      check_bool
        (Printf.sprintf "y matches reference (dropout %.2f)" p_drop)
        true
        (Dense.approx_equal (Ops.Op.lookup env "y")
           ref_.Transformer.Reference.y);
      check_bool "ln1 intermediate matches" true
        (Dense.approx_equal (Ops.Op.lookup env "ln1_out")
           ref_.Transformer.Reference.ln1_out))
    [ 0.0; 0.25 ]

let encoder_loss hp params d_y x =
  let acts = Transformer.Reference.forward hp ~x ~params in
  Dense.sum_all (Dense.mul (Dense.align acts.Transformer.Reference.y d_y) d_y)

let test_encoder_input_gradient () =
  let params, x, d_y = setup tiny in
  let env = Transformer.Encoder.run tiny ~x ~d_y ~params in
  let ok, err =
    Autodiff_check.check ~tol:2e-3 ~f:(encoder_loss tiny params d_y)
      ~grad:(Ops.Op.lookup env "d_x") x
  in
  check_bool (Printf.sprintf "d_x vs finite differences (err %.2e)" err) true ok

let test_encoder_weight_gradients () =
  let params, x, d_y = setup tiny in
  let env = Transformer.Encoder.run tiny ~x ~d_y ~params in
  (* every parameter's gradient against finite differences through the
     independent reference implementation *)
  List.iter
    (fun name ->
      let loss wv =
        let params =
          List.map (fun (n, v) -> if n = name then (n, wv) else (n, v)) params
        in
        encoder_loss tiny params d_y x
      in
      let grad = Ops.Op.lookup env (Transformer.Encoder.grad name) in
      let ok, err =
        Autodiff_check.check ~tol:2e-3 ~f:loss ~grad (List.assoc name params)
      in
      check_bool (Printf.sprintf "d_%s vs fd (err %.2e)" name err) true ok)
    [ "wq"; "wk"; "wv"; "bq"; "bv"; "wo"; "bo"; "ln1_g"; "ln1_b"; "w1"; "b1";
      "w2"; "b2"; "ln2_g"; "ln2_b" ]

(* ---------------- algebraic variants ---------------- *)

let test_variants_agree () =
  let params, x, d_y = setup tiny in
  let run variant =
    let p = Transformer.Encoder.program_with ~variant tiny in
    Ops.Program.run p (("x", x) :: ("d_y", d_y) :: params)
  in
  let base = run Transformer.Encoder.Qkv_fused in
  List.iter
    (fun variant ->
      let env = run variant in
      List.iter
        (fun c ->
          check_bool
            (Printf.sprintf "%s agrees (%s)" c
               (Transformer.Encoder.variant_to_string variant))
            true
            (Dense.approx_equal (Ops.Op.lookup base c) (Ops.Op.lookup env c)))
        [ "y"; "d_x"; "d_wq"; "d_wk"; "d_wv" ])
    [ Transformer.Encoder.Qkv_separate; Transformer.Encoder.Qk_fused ]

(* ---------------- MHA ---------------- *)

let test_mha_matches_reference () =
  let params, x, d_out = setup tiny in
  let env = Transformer.Mha.run tiny ~x ~d_out ~params in
  let k = Dense.rename_axes x [ ("j", "k") ] in
  let reference = Transformer.Reference.mha_forward tiny ~q:x ~k ~v:k ~params in
  check_bool "MHA output matches Fig. 1a reference" true
    (Dense.approx_equal (Ops.Op.lookup env "attn_b") reference)

let test_mha_gradient () =
  let params, x, d_out = setup tiny in
  let env = Transformer.Mha.run tiny ~x ~d_out ~params in
  let loss xv =
    let k = Dense.rename_axes xv [ ("j", "k") ] in
    let out = Transformer.Reference.mha_forward tiny ~q:xv ~k ~v:k ~params in
    Dense.sum_all (Dense.mul (Dense.align out d_out) d_out)
  in
  let ok, err =
    Autodiff_check.check ~tol:2e-3 ~f:loss ~grad:(Ops.Op.lookup env "d_x_attn") x
  in
  check_bool (Printf.sprintf "MHA d_x vs fd (err %.2e)" err) true ok

(* ---------------- decoder ---------------- *)

let test_decoder_causality () =
  let params, x, d_y = setup tiny in
  let y_of x = Ops.Op.lookup (Transformer.Decoder.run tiny ~x ~d_y ~params) "y" in
  let y = y_of x in
  let x' = Dense.copy x in
  let last = tiny.Transformer.Hparams.seq - 1 in
  for i = 0 to tiny.Transformer.Hparams.embed - 1 do
    for b = 0 to tiny.Transformer.Hparams.batch - 1 do
      let idx = [ ("i", i); ("b", b); ("j", last) ] in
      Dense.set x' idx (Dense.get x' idx +. 0.7)
    done
  done;
  let y' = y_of x' in
  Dense.iter y (fun idx v ->
      if List.assoc "j" idx < last && Float.abs (v -. Dense.get y' idx) > 0.0
      then Alcotest.fail "earlier output depends on a future token")

let test_decoder_gradient () =
  let params, x, d_y = setup tiny in
  let env = Transformer.Decoder.run tiny ~x ~d_y ~params in
  let loss xv =
    let env = Transformer.Decoder.run tiny ~x:xv ~d_y ~params in
    Dense.sum_all (Dense.mul (Dense.align (Ops.Op.lookup env "y") d_y) d_y)
  in
  let ok, err =
    Autodiff_check.check ~tol:3e-3 ~f:loss ~grad:(Ops.Op.lookup env "d_x") x
  in
  check_bool (Printf.sprintf "decoder d_x vs fd (err %.2e)" err) true ok

let test_decoder_uses_gelu () =
  let ops = (Transformer.Decoder.program tiny).Ops.Program.ops in
  check_bool "gelu present" true
    (List.exists (fun (o : Ops.Op.t) -> o.Ops.Op.name = "gelu") ops);
  check_bool "no relu" false
    (List.exists (fun (o : Ops.Op.t) -> o.Ops.Op.name = "relu") ops)

(* ---------------- model & training ---------------- *)

let model_hp = { tiny with Transformer.Hparams.batch = 2; seq = 4 }

let test_model_forward_shapes () =
  let m = Transformer.Model.create ~n_layers:2 ~vocab:7 model_hp in
  let tokens = [| [| 1; 2; 3; 4 |]; [| 0; 6; 5; 2 |] |] in
  let cache = Transformer.Model.forward m ~tokens in
  let shape = Dense.shape cache.Transformer.Model.logits in
  check_int "vocab axis" 7 (Shape.size shape "v");
  check_int "batch axis" 2 (Shape.size shape "b");
  check_int "seq axis" 4 (Shape.size shape "j");
  check_int "one saved set per layer" 2
    (Array.length cache.Transformer.Model.layers);
  Array.iter
    (fun (l : Transformer.Model.layer_cache) ->
      let reads =
        List.concat_map
          (fun (o : Ops.Op.t) -> o.reads)
          l.backward_plan.Compile.Compiled.source.Ops.Program.ops
      in
      List.iter
        (fun (c, _) ->
          check_bool (Printf.sprintf "saved %s is read by the backward" c) true
            (List.mem c reads))
        l.saved)
    cache.Transformer.Model.layers

let test_cross_entropy_uniform () =
  (* uniform logits: loss = log vocab, gradient rows sum to zero *)
  let logits = Dense.zeros [ ("v", 5); ("b", 1); ("j", 2) ] in
  let loss, d = Transformer.Model.cross_entropy ~logits ~targets:[| [| 3; 1 |] |] in
  check_bool "loss = log 5" true (Float.abs (loss -. log 5.0) < 1e-9);
  let sums = Dense.sum_over d [ "v" ] in
  Dense.iter sums (fun _ v ->
      if Float.abs v > 1e-12 then Alcotest.fail "CE gradient rows must sum to 0")

let test_cross_entropy_gradient () =
  let prng = Prng.create 77L in
  let logits = Dense.rand prng [ ("v", 4); ("b", 1); ("j", 2) ] ~lo:(-1.0) ~hi:1.0 in
  let targets = [| [| 2; 0 |] |] in
  let f l = fst (Transformer.Model.cross_entropy ~logits:l ~targets) in
  let _, grad = Transformer.Model.cross_entropy ~logits ~targets in
  let ok, err = Autodiff_check.check ~tol:1e-5 ~f ~grad logits in
  check_bool (Printf.sprintf "CE gradient vs fd (err %.2e)" err) true ok

let test_model_gradient_through_stack () =
  (* the embedding gradient of the full stacked model vs finite differences *)
  let m = Transformer.Model.create ~n_layers:1 ~vocab:5 model_hp in
  let tokens = [| [| 1; 2; 3; 0 |]; [| 4; 0; 2; 1 |] |] in
  let targets = tokens in
  let loss_of emb =
    let m = { m with Transformer.Model.embedding = emb } in
    let cache = Transformer.Model.forward m ~tokens in
    fst (Transformer.Model.cross_entropy ~logits:cache.Transformer.Model.logits ~targets)
  in
  let cache = Transformer.Model.forward m ~tokens in
  let _, d_logits =
    Transformer.Model.cross_entropy ~logits:cache.Transformer.Model.logits ~targets
  in
  let grads = Transformer.Model.backward m cache ~d_logits in
  let ok, err =
    Autodiff_check.check ~tol:2e-3 ~f:loss_of
      ~grad:grads.Transformer.Model.d_embedding m.Transformer.Model.embedding
  in
  check_bool (Printf.sprintf "embedding gradient vs fd (err %.2e)" err) true ok

let test_training_decreases_loss () =
  let m = Transformer.Model.create ~n_layers:2 ~vocab:8 model_hp in
  let h = Transformer.Training.train m ~steps:25 ~lr:0.15 (Prng.create 3L) in
  check_bool
    (Printf.sprintf "loss decreases (%.3f -> %.3f)"
       h.Transformer.Training.initial_loss h.Transformer.Training.final_loss)
    true
    (h.Transformer.Training.final_loss
    < 0.5 *. h.Transformer.Training.initial_loss)

let bits_equal a b =
  let a = Dense.align a b in
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    (Dense.unsafe_data a) (Dense.unsafe_data b)

(* Every layer gradient of [Model.backward] is bitwise equal to chaining
   the uncompiled interpreter over the layer's full program, under the
   activation and masking the forward ran. *)
let test_backward_follows_forward () =
  let m = Transformer.Model.create ~n_layers:2 ~vocab:7 model_hp in
  let tokens = [| [| 1; 2; 3; 4 |]; [| 0; 6; 5; 2 |] |] in
  List.iter
    (fun (tag, activation, causal) ->
      let cache =
        Transformer.Model.forward_with ~activation ~causal m ~tokens
      in
      let _, d_logits =
        Transformer.Model.cross_entropy ~logits:cache.Transformer.Model.logits
          ~targets:tokens
      in
      let grads = Transformer.Model.backward m cache ~d_logits in
      let program =
        Transformer.Encoder.program_with ~activation ~causal model_hp
      in
      let run ~x ~d_y layer =
        Ops.Program.run program
          (("x", x) :: ("d_y", d_y) :: m.Transformer.Model.layer_params.(layer))
      in
      (* the forward values do not depend on d_y *)
      let zero = Dense.zeros (Transformer.Hparams.dims_x model_hp) in
      let inputs = Array.make 2 cache.Transformer.Model.x0 in
      inputs.(1) <- Ops.Op.lookup (run ~x:inputs.(0) ~d_y:zero 0) "y";
      let d =
        ref
          (Einsum.eval "vi,vbj->ibj"
             [ m.Transformer.Model.embedding; d_logits ])
      in
      for layer = 1 downto 0 do
        let env = run ~x:inputs.(layer) ~d_y:!d layer in
        List.iter
          (fun (p, g) ->
            check_bool
              (Printf.sprintf "%s layer %d %s bitwise" tag layer p)
              true
              (bits_equal g
                 (Ops.Op.lookup env (Transformer.Encoder.grad p))))
          grads.Transformer.Model.d_layers.(layer);
        d := Ops.Op.lookup env "d_x"
      done)
    [
      ("relu", `Relu, false); ("gelu", `Gelu, false);
      ("gelu causal", `Gelu, true);
    ]

(* After [precompile], a whole training step runs the plans the model
   holds: no pass runs and the plan cache is not even consulted. *)
let test_training_step_runs_plans () =
  let m = Transformer.Model.create ~n_layers:2 ~vocab:7 model_hp in
  let tokens = [| [| 1; 2; 3; 4 |]; [| 0; 6; 5; 2 |] |] in
  Transformer.Model.precompile m ~batch:2 ~seq:4;
  let passes = Compile.Compiled.pass_runs () in
  let stats = Compile.Compiled.cache_stats () in
  let cache = Transformer.Model.forward m ~tokens in
  let _, d_logits =
    Transformer.Model.cross_entropy ~logits:cache.Transformer.Model.logits
      ~targets:tokens
  in
  ignore (Transformer.Model.backward m cache ~d_logits);
  check_int "no pass re-runs" passes (Compile.Compiled.pass_runs ());
  check_int "no plan-cache hits" stats.Compile.Compiled.hits
    (Compile.Compiled.cache_stats ()).Compile.Compiled.hits;
  check_bool "plan cache untouched" true
    (Compile.Compiled.cache_stats () = stats)

let test_sgd_step_moves_parameters () =
  let m = Transformer.Model.create ~n_layers:1 ~vocab:5 model_hp in
  let before = Dense.copy m.Transformer.Model.embedding in
  let tokens = [| [| 1; 2; 3; 0 |]; [| 4; 0; 2; 1 |] |] in
  let (_ : float) = Transformer.Training.step m ~tokens ~targets:tokens ~lr:0.1 in
  check_bool "embedding updated in place" false
    (Dense.approx_equal before m.Transformer.Model.embedding)

let () =
  Alcotest.run "transformer"
    [
      ( "hparams & params",
        [
          Alcotest.test_case "hyperparameters" `Quick test_hparams;
          Alcotest.test_case "initialization" `Quick test_params_init;
        ] );
      ( "encoder",
        [
          Alcotest.test_case "forward matches reference" `Quick
            test_encoder_matches_reference;
          Alcotest.test_case "input gradient" `Quick test_encoder_input_gradient;
          Alcotest.test_case "all weight gradients" `Slow
            test_encoder_weight_gradients;
          Alcotest.test_case "algebraic variants agree" `Quick test_variants_agree;
        ] );
      ( "mha",
        [
          Alcotest.test_case "matches reference" `Quick test_mha_matches_reference;
          Alcotest.test_case "gradient" `Quick test_mha_gradient;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "causality" `Quick test_decoder_causality;
          Alcotest.test_case "gradient" `Quick test_decoder_gradient;
          Alcotest.test_case "uses gelu" `Quick test_decoder_uses_gelu;
        ] );
      ( "model & training",
        [
          Alcotest.test_case "forward shapes" `Quick test_model_forward_shapes;
          Alcotest.test_case "cross entropy uniform" `Quick test_cross_entropy_uniform;
          Alcotest.test_case "cross entropy gradient" `Quick
            test_cross_entropy_gradient;
          Alcotest.test_case "stacked-model gradient" `Slow
            test_model_gradient_through_stack;
          Alcotest.test_case "training decreases loss" `Slow
            test_training_decreases_loss;
          Alcotest.test_case "sgd updates in place" `Quick
            test_sgd_step_moves_parameters;
          Alcotest.test_case "backward follows the forward" `Quick
            test_backward_follows_forward;
          Alcotest.test_case "training step runs only plans" `Quick
            test_training_step_runs_plans;
        ] );
    ]

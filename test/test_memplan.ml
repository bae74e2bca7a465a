(* Tests for the static memory planner and weight layouts: planned
   execution (drop each container after its last use) must be
   bitwise-equal to the allocate-everything oracle (serial and parallel,
   fast and naive, unfused and fused), the reported planned peak must be
   the peak the planned environment really holds, the out-projection GEMM
   must read [wo] in place as [Params.init] stores it, with the same bits
   as the declared layout through decode and optimizer updates, and the
   einsum plan cache must key on shapes and layouts only (one plan serves
   every domain count). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bits_equal a b =
  let a = Dense.align a b in
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    (Dense.unsafe_data a) (Dense.unsafe_data b)

let tiny = Transformer.Hparams.tiny

let layer_inputs hp seed =
  let prng = Prng.create seed in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  ("x", x) :: ("d_y", d_y) :: params

(* Planned env must be a subset of the oracle env (dead intermediates are
   dropped) and bitwise-equal on every container it kept. *)
let planned_agrees ~name ?keep program inputs ~fast =
  let env_ref =
    Fastmode.with_mode fast (fun () -> Ops.Program.run program inputs)
  in
  let mp = Ops.Memplan.plan ?keep program in
  let env_pl =
    Fastmode.with_mode fast (fun () -> Ops.Memplan.execute mp inputs)
  in
  let compared = ref 0 in
  Hashtbl.iter
    (fun c t_pl ->
      match Hashtbl.find_opt env_ref c with
      | None -> Alcotest.failf "%s: planned env kept unknown container %s" name c
      | Some t_ref ->
          incr compared;
          if not (bits_equal t_ref t_pl) then
            Alcotest.failf "%s: container %s differs from oracle" name c)
    env_pl;
  check_bool
    (Printf.sprintf "%s: compared some containers" name)
    true (!compared > 0);
  (env_pl, Ops.Memplan.stats mp)

let encoder_fused hp =
  Substation.Fusion.fuse ~name_table:Transformer.Encoder.kernel_names
    (Transformer.Encoder.program hp)

(* ---------------- planned == oracle, encoder fwd+bwd ---------------- *)

let test_encoder_planned_bitwise () =
  let inputs = layer_inputs tiny 11L in
  List.iter
    (fun fast ->
      let tag = if fast then "fast" else "naive" in
      let env, _ =
        planned_agrees
          ~name:("encoder unfused " ^ tag)
          (Transformer.Encoder.program tiny)
          inputs ~fast
      in
      List.iter
        (fun c ->
          check_bool
            (Printf.sprintf "unfused %s keeps %s" tag c)
            true
            (Hashtbl.mem env c))
        [ "y"; "d_x"; "d_wq"; "d_w2" ];
      let env_f, _ =
        planned_agrees
          ~name:("encoder fused " ^ tag)
          (encoder_fused tiny) inputs ~fast
      in
      check_bool
        (Printf.sprintf "fused %s keeps y" tag)
        true (Hashtbl.mem env_f "y"))
    [ false; true ]

let test_encoder_keep () =
  let inputs = layer_inputs tiny 13L in
  let env, _ =
    planned_agrees ~name:"encoder keep" ~keep:[ "ln1_out" ]
      (Transformer.Encoder.program tiny)
      inputs ~fast:true
  in
  check_bool "kept intermediate survives" true (Hashtbl.mem env "ln1_out");
  (* keeping a streaming-attention output must not leak any undeclared
     environment key alongside it *)
  let attn =
    Substation.Fusion.fuse ~name_table:Transformer.Encoder.kernel_names
      ~attention:true (Transformer.Encoder.program tiny)
  in
  let env, _ =
    planned_agrees ~name:"attention-fused keep gam" ~keep:[ "gam" ] attn
      inputs ~fast:true
  in
  check_bool "kept attention output survives" true (Hashtbl.mem env "gam");
  Hashtbl.iter
    (fun c _ ->
      if not (List.mem_assoc c attn.Ops.Program.containers) then
        Alcotest.failf "planned env holds undeclared container %s" c)
    env

(* A kept container survives the whole compiled pipeline — fusion and the
   attention window included — bitwise equal to the uncompiled
   interpreter. *)
let test_keep_survives_fusion () =
  let fwd = Transformer.Encoder.forward_program tiny in
  let inputs =
    List.filter (fun (c, _) -> c <> "d_y") (layer_inputs tiny 17L)
  in
  let reference = Ops.Program.run fwd inputs in
  List.iter
    (fun c ->
      let plan =
        Compile.Compiled.compile ~name_table:Transformer.Encoder.kernel_names
          (Compile.Regime.current ~keep:[ c ] ())
          fwd
      in
      let env = Compile.Compiled.execute plan inputs in
      match Hashtbl.find_opt env c with
      | None -> Alcotest.failf "kept %s missing from the executed env" c
      | Some t ->
          check_bool
            (Printf.sprintf "kept %s bitwise" c)
            true
            (bits_equal (Ops.Op.lookup reference c) t))
    [ "ff1b"; "alpha_sm"; "alpha"; "res1" ]

(* ---------------- peak-reduction acceptance ---------------- *)

let test_peak_reduction () =
  List.iter
    (fun (tag, program) ->
      let mp = Ops.Memplan.plan program in
      let s = Ops.Memplan.stats mp in
      check_bool
        (Printf.sprintf
           "%s: planned resident set <= 75%% of naive (plan %d naive %d)" tag
           s.Ops.Memplan.plan_peak_floats s.Ops.Memplan.naive_peak_floats)
        true
        (float_of_int s.Ops.Memplan.plan_peak_floats
        <= 0.75 *. float_of_int s.Ops.Memplan.naive_peak_floats))
    [
      ("encoder unfused", Transformer.Encoder.program tiny);
      ("encoder fused", encoder_fused tiny);
    ]

(* ---------------- the reported peak is observed ---------------- *)

(* The largest total volume of non-input program containers the planned
   environment holds after any op (before that op's dead containers are
   dropped) must equal the plan's [plan_peak_floats]. *)
let test_reported_peak_observed () =
  let inputs = layer_inputs tiny 37L in
  List.iter
    (fun (tag, keep, program) ->
      let mp = Ops.Memplan.plan ?keep program in
      let observed = ref 0 in
      let check_op _ env =
        let held =
          List.fold_left
            (fun acc (c, _) ->
              match Hashtbl.find_opt env c with
              | Some t when not (List.mem_assoc c inputs) ->
                  acc + Array.length (Dense.unsafe_data t)
              | _ -> acc)
            0 program.Ops.Program.containers
        in
        observed := max !observed held
      in
      ignore
        (Fastmode.with_mode true (fun () ->
             Ops.Memplan.execute ~check_op mp inputs));
      check_int
        (Printf.sprintf "%s: reported peak equals observed peak" tag)
        !observed (Ops.Memplan.stats mp).Ops.Memplan.plan_peak_floats)
    [
      ("unfused", None, Transformer.Encoder.program tiny);
      ("unfused, keep ln1_out", Some [ "ln1_out" ], Transformer.Encoder.program tiny);
      ("fused", None, encoder_fused tiny);
      ( "fused with attention",
        None,
        Substation.Fusion.fuse ~name_table:Transformer.Encoder.kernel_names
          ~attention:true (Transformer.Encoder.program tiny) );
    ]

(* ---------------- hand-built programs: legality ---------------- *)

let dims = [ ("a", 4); ("b", 6) ]

let chain_inputs seed =
  let prng = Prng.create seed in
  [ ("x0", Dense.rand prng dims ~lo:(-1.0) ~hi:1.0) ]

let test_inplace_refused_for_live_source () =
  (* t1 is read again after the gelu, and both outputs escape: nothing may
     run in place or alias. *)
  let ops =
    [
      Ops.Elementwise.relu ~name:"r" ~x:"x0" ~out:"t1" dims ();
      Ops.Elementwise.gelu ~name:"g" ~x:"t1" ~out:"y1" dims ();
      Ops.Elementwise.tanh_ ~name:"t" ~x:"t1" ~out:"y2" dims ();
    ]
  in
  let program =
    Ops.Program.make
      ~containers:
        [ ("x0", dims); ("t1", dims); ("y1", dims); ("y2", dims) ]
      ops
  in
  let _, s =
    planned_agrees ~name:"live source" program (chain_inputs 5L) ~fast:false
  in
  check_int "no in-place with a later reader" 0 s.Ops.Memplan.inplace;
  check_int "no aliasing of escaping outputs" 0 s.Ops.Memplan.aliased

let test_random_layout_chains () =
  (* Element-wise chains (including dropout's mask stream) over inputs in
     permuted storage orders: dropping dead intermediates mid-chain must
     keep every layout bitwise-equal to the oracle. *)
  List.iter
    (fun seed ->
      let prng = Prng.create (Int64.of_int seed) in
      let d3 = [ ("a", 3); ("b", 4); ("c", 5) ] in
      let x = Dense.rand prng d3 ~lo:(-1.0) ~hi:1.0 in
      let x =
        if seed mod 2 = 0 then Dense.permute x [ "c"; "a"; "b" ] else x
      in
      let ops =
        [
          Ops.Elementwise.gelu ~name:"g" ~x:"x0" ~out:"t1" d3 ();
          Ops.Elementwise.dropout ~name:"d" ~x:"t1" ~out:"t2" ~mask:"m" d3
            ~p:0.25 ~seed:(Int64.of_int (seed * 31)) ();
          Ops.Elementwise.add ~name:"a" ~x:"t2" ~y:"x0" ~out:"y" d3 ();
        ]
      in
      let program =
        Ops.Program.make
          ~containers:
            [ ("x0", d3); ("t1", d3); ("t2", d3); ("m", d3); ("y", d3) ]
          ops
      in
      ignore
        (planned_agrees
           ~name:(Printf.sprintf "layout chain %d" seed)
           program
           [ ("x0", x) ]
           ~fast:false))
    [ 1; 2; 3; 4 ]

(* ---------------- serial == parallel ---------------- *)

let test_planned_serial_equals_parallel () =
  let program = encoder_fused tiny in
  let inputs = layer_inputs tiny 17L in
  let mp = Ops.Memplan.plan program in
  let run n =
    Pool.with_domains n (fun () ->
        Fastmode.with_mode true (fun () -> Ops.Memplan.execute mp inputs))
  in
  let env1 = run 1 in
  let env4 = run 4 in
  Hashtbl.iter
    (fun c t1 ->
      match Hashtbl.find_opt env4 c with
      | None -> Alcotest.failf "parallel env missing %s" c
      | Some t4 ->
          if not (bits_equal t1 t4) then
            Alcotest.failf "serial/parallel differ on %s" c)
    env1

(* ---------------- executor integration ---------------- *)

(* The executor runs the planned path; the uncompiled interpreter
   ([Ops.Program.run]) is the no-plan reference. *)
let test_run_planned_guard_and_fallback () =
  let device = Gpu.Device.v100 in
  let plan =
    Frameworks.Pytorch_sim.plan ~device
      ~workload:Frameworks.Executor.Encoder_layer tiny
  in
  let inputs = layer_inputs tiny 19L in
  let current = Compile.Regime.current () in
  let env_ref = Ops.Program.run plan.Frameworks.Executor.program inputs in
  let env_pl, _ = Frameworks.Executor.run current plan inputs in
  check_bool "planned run matches the unplanned run on y" true
    (bits_equal (Ops.Op.lookup env_ref "y") (Ops.Op.lookup env_pl "y"));
  (* the numerical guard scans planned writes too *)
  let prng = Prng.create 23L in
  let bad = Transformer.Params.random_input tiny prng in
  (Dense.unsafe_data bad).(0) <- Float.nan;
  let bad_inputs = ("x", bad) :: List.remove_assoc "x" inputs in
  (try
     ignore (Frameworks.Executor.run current plan bad_inputs);
     Alcotest.fail "expected Numerical_fault through the planned path"
   with Frameworks.Executor.Numerical_fault _ -> ());
  (* the uncompiled interpreter retains every intermediate; the planned
     run drops dead ones *)
  check_bool "unplanned run retains intermediates" true
    (Hashtbl.mem env_ref "ln1_out");
  check_bool "planned run drops dead intermediates" false
    (Hashtbl.mem env_pl "ln1_out")

(* ---------------- plan-cache regime keying ---------------- *)

let test_plan_cache_keys_on_domains () =
  Einsum.clear_caches ();
  let prng = Prng.create 29L in
  let a = Dense.rand prng [ ("b", 3); ("m", 8); ("k", 8) ] ~lo:(-1.0) ~hi:1.0 in
  let b = Dense.rand prng [ ("b", 3); ("k", 8); ("n", 8) ] ~lo:(-1.0) ~hi:1.0 in
  let eval n =
    Pool.with_domains n (fun () ->
        Fastmode.with_mode true (fun () ->
            Einsum.contract [ a; b ] ~out:[ "b"; "m"; "n" ]))
  in
  let r1 = eval 1 in
  let m1 = (Einsum.cache_stats ()).Einsum.misses in
  let r4 = eval 4 in
  let m2 = (Einsum.cache_stats ()).Einsum.misses in
  check_int "a second domain count reuses the plan (no new miss)" m1 m2;
  let r1' = eval 1 in
  let s = Einsum.cache_stats () in
  check_int "repeat under the same regime misses nothing" m2 s.Einsum.misses;
  check_bool "repeat hits the cached plan" true (s.Einsum.hits > 0);
  check_bool "same result under either regime" true
    (bits_equal r1 r4 && bits_equal r1 r1')

(* ---------------- weight layout ---------------- *)

let model_hp =
  { (Transformer.Hparams.with_dropout tiny 0.0) with
    Transformer.Hparams.batch = 2;
    seq = 4;
  }

(* [m] with every layer's [wo] re-stored in its declared (w,h,i) order,
   the layout the out-projection GEMM cannot read in place. *)
let with_declared_wo (m : Transformer.Model.t) =
  Array.iteri
    (fun l params ->
      m.Transformer.Model.layer_params.(l) <-
        List.map
          (fun (n, t) ->
            if n = "wo" then (n, Dense.permute t [ "w"; "h"; "i" ]) else (n, t))
          params)
    m.Transformer.Model.layer_params;
  m

let test_out_projection_reads_wo_in_place () =
  let hp = model_hp in
  let wo = List.assoc "wo" (Transformer.Params.init hp) in
  let gam =
    Dense.rand (Prng.create 31L)
      [ ("w", hp.proj); ("h", hp.heads); ("b", 2); ("j", 1) ]
      ~lo:(-1.0) ~hi:1.0
  in
  let scratch wo =
    Arena.reset_peak Arena.global;
    let r =
      Fastmode.with_mode true (fun () ->
          Einsum.eval "whi,whbj->ibj" [ wo; gam ])
    in
    ((Arena.stats Arena.global).Arena.peak_floats, r)
  in
  let peak, r = scratch wo in
  let peak_declared, r_declared = scratch (Dense.permute wo [ "w"; "h"; "i" ]) in
  check_int "wo as Params.init stores it borrows no packing scratch" 0 peak;
  check_bool "wo stored (w,h,i) is packed through scratch" true
    (peak_declared > 0);
  check_bool "both layouts give the same bits" true (bits_equal r r_declared)

let test_decode_wo_layouts_bitwise () =
  (* KV-cached decode runs the out-projection once per token, as the
     [out] op of each layer's post-attention plan. *)
  let decode_run m =
    let s = Transformer.Model.new_session m in
    Fastmode.with_mode true (fun () ->
        [ 1; 3; 2; 5 ]
        |> List.concat_map (fun tok ->
               Array.to_list
                 (Transformer.Model.logits_column
                    (Transformer.Model.decode_batch m [| s |] ~tokens:[| tok |])
                    ~b:0)))
  in
  let create () = Transformer.Model.create ~n_layers:1 ~vocab:7 model_hp in
  check_bool "decode logits bitwise equal for wo (i,w,h) and (w,h,i)" true
    (List.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (decode_run (create ()))
       (decode_run (with_declared_wo (create ()))))

let test_optimizer_updates_across_wo_layouts () =
  (* two SGD steps, then one Adam step: each update aligns the gradient to
     the parameter's own layout, so the wo layout changes no bit *)
  let train m =
    let tokens = [| [| 1; 2; 3; 0 |]; [| 4; 0; 2; 1 |] |] in
    ignore (Transformer.Training.step m ~tokens ~targets:tokens ~lr:0.1);
    ignore (Transformer.Training.step m ~tokens ~targets:tokens ~lr:0.1);
    let cache = Transformer.Model.forward m ~tokens in
    let _, d_logits =
      Transformer.Model.cross_entropy ~logits:cache.Transformer.Model.logits
        ~targets:tokens
    in
    let grads = Transformer.Model.backward m cache ~d_logits in
    Transformer.Model.adam_step m (Transformer.Model.adam_init m) grads ~lr:0.01;
    ( (Transformer.Model.forward m ~tokens).Transformer.Model.logits,
      List.assoc "wo" m.Transformer.Model.layer_params.(0) )
  in
  List.iter
    (fun p ->
      let hp = Transformer.Hparams.with_dropout model_hp p in
      let create () = Transformer.Model.create ~n_layers:1 ~vocab:5 hp in
      let logits, wo = train (create ()) in
      let logits', wo' = train (with_declared_wo (create ())) in
      check_bool
        (Printf.sprintf "SGD+Adam across wo layouts bitwise (dropout %g)" p)
        true
        (bits_equal logits logits' && bits_equal wo wo'))
    [ 0.0; 0.1 ]

let test_interrupted_training_then_planned_run () =
  (* a crash/resume cycle (which restores weights in place) followed by
     planned execution over the restored weights: everything stays bitwise-equal to the uninterrupted path *)
  let ckpt = Filename.temp_file "substation-memplan" ".ckpt" in
  Sys.remove ckpt;
  let steps = 3 and lr = 0.05 in
  let m_ref = Transformer.Model.create ~n_layers:1 ~vocab:5 model_hp in
  ignore (Transformer.Training.train m_ref ~steps ~lr (Prng.create 7L));
  let m = Transformer.Model.create ~n_layers:1 ~vocab:5 model_hp in
  let prng = Prng.create 7L in
  let rec go () =
    match
      Transformer.Training.train ~checkpoint:ckpt ~interrupt_after:1 m ~steps
        ~lr prng
    with
    | h -> h
    | exception Transformer.Training.Interrupted _ -> go ()
  in
  ignore (go ());
  let tokens = [| [| 1; 2; 3; 0 |]; [| 4; 0; 2; 1 |] |] in
  check_bool "resumed model bitwise equals uninterrupted" true
    (bits_equal
       (Transformer.Model.forward m_ref ~tokens).Transformer.Model.logits
       (Transformer.Model.forward m ~tokens).Transformer.Model.logits);
  (* planned encoder execution over layer-0 weights of the resumed model *)
  let prng = Prng.create 41L in
  let inputs =
    ("x", Transformer.Params.random_input model_hp prng)
    :: ("d_y", Transformer.Params.random_cotangent model_hp prng)
    :: m.Transformer.Model.layer_params.(0)
  in
  ignore
    (planned_agrees ~name:"planned over resumed weights"
       (Transformer.Encoder.program model_hp)
       inputs ~fast:true)

let () =
  Alcotest.run "memplan"
    [
      ( "planned",
        [
          Alcotest.test_case "encoder fwd+bwd bitwise" `Quick
            test_encoder_planned_bitwise;
          Alcotest.test_case "keep-list" `Quick test_encoder_keep;
          Alcotest.test_case "keep survives fusion" `Quick
            test_keep_survives_fusion;
          Alcotest.test_case "peak reduction >= 25%" `Quick
            test_peak_reduction;
          Alcotest.test_case "reported peak is observed" `Quick
            test_reported_peak_observed;
          Alcotest.test_case "serial == parallel" `Quick
            test_planned_serial_equals_parallel;
        ] );
      ( "placement",
        [
          Alcotest.test_case "in-place refused for live source" `Quick
            test_inplace_refused_for_live_source;
          Alcotest.test_case "random layouts + dropout" `Quick
            test_random_layout_chains;
        ] );
      ( "executor",
        [
          Alcotest.test_case "run_planned: parity, guard, escape hatch"
            `Quick test_run_planned_guard_and_fallback;
          Alcotest.test_case "plan cache keys on regime" `Quick
            test_plan_cache_keys_on_domains;
        ] );
      ( "layout",
        [
          Alcotest.test_case "out-projection reads wo in place" `Quick
            test_out_projection_reads_wo_in_place;
          Alcotest.test_case "decode wo layouts bitwise" `Quick
            test_decode_wo_layouts_bitwise;
          Alcotest.test_case "optimizer updates across wo layouts" `Quick
            test_optimizer_updates_across_wo_layouts;
          Alcotest.test_case "interrupt/resume + planned run" `Quick
            test_interrupted_training_then_planned_run;
        ] );
    ]

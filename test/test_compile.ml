(* Tests for the staged compiler pipeline: every pass must preserve the
   uncompiled interpreter's semantics bitwise across randomized
   encoder/decoder geometries, fast and naive backends, serial and
   parallel pools, and with the kernel guard's oracle fallback engaged;
   the plan cache must hit with zero pass re-runs and stay valid across
   in-place weight mutation; and a compiled
   attention window's forward must be bitwise exact however it was
   compiled. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bits_equal a b =
  let a = Dense.align a b in
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    (Dense.unsafe_data a) (Dense.unsafe_data b)

let tiny = Transformer.Hparams.tiny
let device = Gpu.Device.v100

let layer_inputs hp seed =
  let prng = Prng.create seed in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  ("x", x) :: ("d_y", d_y) :: params

let compile_current ?keep program =
  Compile.Compiled.compile ~name_table:Transformer.Encoder.kernel_names
    (Compile.Regime.current ?keep ())
    program

(* ---------------- verified lowering: the property test --------------- *)

(* [~verify:true] executes the staged program after every pass and raises
   on any container outside the verified envelope — so "compiles without
   Verification_failed" IS the per-pass preservation property. *)
let verify_program ?keep ?(extra_inputs = []) ~name hp program =
  let inputs =
    extra_inputs @ layer_inputs hp (Int64.of_int (Hashtbl.hash name))
  in
  let plan =
    Compile.Compiled.compile ~name_table:Transformer.Encoder.kernel_names
      ~verify:true
      ~verify_inputs:inputs
      (Compile.Regime.current ?keep ())
      program
  in
  check_bool (name ^ ": verified") true plan.Compile.Compiled.verified;
  Alcotest.(check (list string))
    (name ^ ": one row per pipeline stage, in order")
    [ "canonicalize"; "attention-window"; "fusion"; "memory-plan" ]
    (List.map
       (fun (s : Compile.Pass.stat) -> s.st_pass)
       plan.Compile.Compiled.trace);
  (* the memory-plan row, and any row after it, reports the planned peak
     instead of falling back to the allocate-everything sum *)
  let planned =
    match plan.Compile.Compiled.memplan with
    | Some mp -> (Ops.Memplan.stats mp).Ops.Memplan.plan_peak_floats
    | None -> Alcotest.failf "%s: no memory plan" name
  in
  let rec from_memory_plan = function
    | [] -> []
    | (s : Compile.Pass.stat) :: rest ->
        if String.equal s.st_pass "memory-plan" then s :: rest
        else from_memory_plan rest
  in
  let rows = from_memory_plan plan.Compile.Compiled.trace in
  check_bool (name ^ ": trace has a memory-plan row") true
    (List.length rows >= 1);
  List.iter
    (fun (s : Compile.Pass.stat) ->
      check_int
        (Printf.sprintf "%s: %s row reports the planned peak" name s.st_pass)
        planned s.st_peak_floats)
    rows;
  plan

(* Randomized geometries: batch/seq/dropout vary, embed/heads stay at the
   tiny preset (embed = heads x proj is a program invariant). *)
let random_hparams prng =
  {
    tiny with
    Transformer.Hparams.batch = 1 + Prng.int prng ~bound:3;
    seq = 2 + Prng.int prng ~bound:5;
    dropout_p = (if Prng.int prng ~bound:2 = 0 then 0.0 else 0.1);
    seed = Int64.of_int (1 + Prng.int prng ~bound:1000);
  }

(* A wider L=64 encoder: its attention window spans two 32-row Q tiles. *)
let l64 =
  {
    tiny with
    Transformer.Hparams.batch = 1;
    seq = 64;
    embed = 64;
    heads = 4;
    proj = 16;
    ff = 256;
    dropout_p = 0.1;
  }

let test_verified_encoder_decoder () =
  let prng = Prng.create 7L in
  for i = 1 to 3 do
    let hp = random_hparams prng in
    ignore
      (verify_program
         ~name:(Printf.sprintf "encoder #%d" i)
         hp
         (Transformer.Encoder.program hp));
    ignore
      (verify_program
         ~name:(Printf.sprintf "decoder #%d" i)
         hp
         (Transformer.Encoder.program_with ~causal:true ~activation:`Gelu hp))
  done;
  ignore
    (verify_program ~name:"encoder L=64" l64 (Transformer.Encoder.program l64));
  (* the two slices of the decoder program a KV-cached decode step runs,
     at three one-token sessions, under the keep sets decoding reads *)
  let hp = { tiny with Transformer.Hparams.dropout_p = 0.0 } in
  let m = Transformer.Model.create ~n_layers:1 hp in
  let pre, post = Transformer.Model.decode_plans m ~batch:3 in
  let step_hp = { hp with Transformer.Hparams.batch = 3; seq = 1 } in
  let names (plan : Compile.Compiled.plan) =
    List.map (fun (o : Ops.Op.t) -> o.name) plan.source.Ops.Program.ops
  in
  check_bool "pre slice: the projections and their biases" true
    (names pre = [ "qkv"; "bias_q"; "bias_k"; "bias_v" ]);
  check_bool "post slice: out through ln2" true
    (List.hd (names post) = "out"
    && List.nth (names post) (List.length (names post) - 1) = "ln2");
  let gam =
    Dense.rand (Prng.of_key 5L "gam")
      (Ops.Program.container_dims post.Compile.Compiled.source "gam")
      ~lo:(-1.0) ~hi:1.0
  in
  List.iter
    (fun (name, (plan : Compile.Compiled.plan)) ->
      ignore
        (verify_program ~keep:plan.regime.Compile.Regime.keep
           ~extra_inputs:[ ("gam", gam) ] ~name step_hp plan.source))
    [ ("decode pre-attention slice", pre);
      ("decode post-attention slice", post) ]

let test_verified_fast_and_naive () =
  List.iter
    (fun fast ->
      Fastmode.with_mode fast (fun () ->
          ignore
            (verify_program
               ~name:(if fast then "fast backend" else "naive oracle")
               tiny
               (Transformer.Encoder.program tiny))))
    [ true; false ]

let test_verified_parallel () =
  Pool.with_domains 4 (fun () ->
      ignore
        (verify_program ~name:"parallel pool" tiny
           (Transformer.Encoder.program tiny)))

(* Guard fallback engaged: with injected kernel crashes, every fast
   kernel (fused attention included) falls back to its naive-oracle
   replay. The fallback contract is bitwise, so verification must still
   pass while the guard is actively healing the run. *)
let test_verified_guard_fallback () =
  Guard.reset ();
  let faults = Gpu.Faults.make_exec ~seed:3L ~crash_rate:0.5 () in
  Gpu.Faults.with_exec_faults faults (fun () ->
      Guard.with_level Guard.Nan (fun () ->
          ignore
            (verify_program ~name:"guard fallback" tiny
               (Transformer.Encoder.program tiny))));
  Guard.reset ()

(* The keep set alone decides whether attention windows form: keeping a
   score container (what a training forward keeps for its backward)
   leaves the attention chain unfused, and the plan is still bitwise the
   interpreter; keeping nothing forms the forward and backward windows. *)
let test_keep_decides_windows () =
  let program = Transformer.Encoder.program tiny in
  let inputs = layer_inputs tiny 43L in
  let kept =
    verify_program ~keep:[ "alpha_sm" ] ~name:"keep alpha_sm" tiny program
  in
  check_int "keep alpha_sm: no attention window" 0
    (List.length kept.Compile.Compiled.attn_sites);
  let oracle = Ops.Program.run program inputs in
  let env = Compile.Compiled.execute kept inputs in
  List.iter
    (fun c ->
      check_bool
        (Printf.sprintf "keep alpha_sm: %s bitwise equal to the interpreter" c)
        true
        (bits_equal (Ops.Op.lookup oracle c) (Ops.Op.lookup env c)))
    [ "y"; "d_x"; "alpha_sm" ];
  let plain = compile_current ~keep:[] program in
  check_int "keep []: forward and backward windows" 2
    (List.length plain.Compile.Compiled.attn_sites)

(* ---------------- plan cache ---------------- *)

let test_cache_hit_zero_reruns () =
  List.iter
    (fun hp ->
      Compile.Compiled.clear_cache ();
      let plan1 = compile_current (Transformer.Encoder.program hp) in
      let runs = Compile.Compiled.pass_runs () in
      (* a structurally identical rebuild, not the same value *)
      let plan2 = compile_current (Transformer.Encoder.program hp) in
      check_bool "second compile is the cached plan" true (plan1 == plan2);
      check_int "cache hit re-runs zero passes" runs
        (Compile.Compiled.pass_runs ()))
    [ l64; tiny ];
  let plan1 = compile_current (Transformer.Encoder.program tiny) in
  (* the backend mode is not part of the regime: a naive compile is the
     same plan *)
  let naive =
    Fastmode.with_mode false (fun () ->
        compile_current (Transformer.Encoder.program tiny))
  in
  check_bool "backend mode is not part of the key" true (naive == plan1);
  (* a different regime (another keep set) misses: same fingerprint,
     different cache key *)
  let plan3 =
    compile_current ~keep:[ "alpha_sm" ] (Transformer.Encoder.program tiny)
  in
  check_bool "regime is part of the key" true (not (plan3 == plan1));
  check_bool "fingerprint is structural" true
    (String.equal plan1.Compile.Compiled.fingerprint
       plan3.Compile.Compiled.fingerprint);
  (* the name table names the fused kernels, so it keys the plan too: a
     compile without it must not satisfy a later compile with it *)
  Compile.Compiled.clear_cache ();
  let regime = Compile.Regime.current () in
  let unnamed =
    Compile.Compiled.compile regime (Transformer.Encoder.program tiny)
  in
  let named =
    Compile.Compiled.compile ~name_table:Transformer.Encoder.kernel_names
      regime
      (Transformer.Encoder.program tiny)
  in
  check_bool "name table is part of the key" true (not (named == unnamed));
  check_bool "named compile has the ATTN kernel" true
    (List.exists
       (fun (o : Ops.Op.t) -> String.equal o.name "ATTN")
       named.Compile.Compiled.program.Ops.Program.ops)

let test_cache_weight_mutation () =
  Compile.Compiled.clear_cache ();
  let hp = { tiny with Transformer.Hparams.dropout_p = 0.0 } in
  let program = Transformer.Encoder.program hp in
  let inputs = layer_inputs hp 23L in
  let plan = compile_current program in
  let y1 =
    Dense.copy (Ops.Op.lookup (Compile.Compiled.execute plan inputs) "y")
  in
  (* mutate a weight in place, as an optimizer step would *)
  let w1 = List.assoc "w1" inputs in
  let data = Dense.unsafe_data w1 in
  Array.iteri (fun i v -> data.(i) <- v *. 1.5) (Array.copy data);
  (* the cached plan stays valid (zero re-compiles) and the next execute
     reproduces the uncompiled interpreter on the mutated weights
     bitwise *)
  let runs = Compile.Compiled.pass_runs () in
  let plan' = compile_current program in
  check_bool "plan survives the weight update" true (plan' == plan);
  check_int "no re-planning after the weight update" runs
    (Compile.Compiled.pass_runs ());
  let y2 = Ops.Op.lookup (Compile.Compiled.execute plan' inputs) "y" in
  let oracle =
    Ops.Op.lookup
      (Fastmode.with_mode (Fastmode.enabled ()) (fun () ->
           Ops.Program.run program inputs))
      "y"
  in
  check_bool "mutated weights flow through" false (bits_equal y1 y2);
  check_bool "post-mutation execute matches the oracle bitwise" true
    (bits_equal oracle y2)

(* One plan serves every execution mode: the backend mode, domain count
   and guard level are read by the kernels at run time, so a plan compiled
   once executes under any of them without a recompile, bitwise equal to
   the uncompiled interpreter under the same backend mode. *)
let test_one_plan_every_mode () =
  Compile.Compiled.clear_cache ();
  let program = Transformer.Encoder.program tiny in
  let inputs = layer_inputs tiny 37L in
  let plan = compile_current program in
  let runs = Compile.Compiled.pass_runs () in
  let compiles = (Compile.Compiled.cache_stats ()).Compile.Compiled.compiles in
  List.iter
    (fun fast ->
      let oracle =
        Fastmode.with_mode fast (fun () -> Ops.Program.run program inputs)
      in
      List.iter
        (fun domains ->
          List.iter
            (fun guard ->
              let tag =
                Printf.sprintf "%s, %d domain(s), guard %s"
                  (if fast then "fast" else "naive")
                  domains
                  (Guard.level_to_string guard)
              in
              let env =
                Fastmode.with_mode fast (fun () ->
                    Pool.with_domains domains (fun () ->
                        Guard.with_level guard (fun () ->
                            let plan' = compile_current program in
                            check_bool (tag ^ ": the same plan") true
                              (plan' == plan);
                            Compile.Compiled.execute plan' inputs)))
              in
              List.iter
                (fun c ->
                  check_bool
                    (Printf.sprintf "%s: %s bitwise equal to the interpreter"
                       tag c)
                    true
                    (bits_equal (Ops.Op.lookup oracle c) (Ops.Op.lookup env c)))
                [ "y"; "d_x"; "d_wq"; "d_w2" ])
            [ Guard.Exceptions; Guard.Nan ])
        [ 1; 4 ])
    [ true; false ];
  check_int "no pass re-ran" runs (Compile.Compiled.pass_runs ());
  check_int "no compile ran" compiles
    (Compile.Compiled.cache_stats ()).Compile.Compiled.compiles;
  (* the training oracle path: a naive forward after a fast one reuses the
     fast forward's plans *)
  let m = Transformer.Model.create ~n_layers:2 ~vocab:16 tiny in
  let tokens =
    Array.init tiny.Transformer.Hparams.batch (fun b ->
        Array.init tiny.Transformer.Hparams.seq (fun j -> (b + j) mod 16))
  in
  ignore (Transformer.Model.forward m ~tokens);
  let runs = Compile.Compiled.pass_runs () in
  ignore (Fastmode.with_naive (fun () -> Transformer.Model.forward m ~tokens));
  check_int "naive Model.forward re-runs zero passes" runs
    (Compile.Compiled.pass_runs ())

(* ---------------- attention exactness ---------------- *)

(* A compiled attention window's forward is bitwise equal to the oracle
   however the plan was compiled: with or without a device, in either
   compile order. L = 256 spans eight of the forward's 32-row Q tiles. *)
let test_attention_exact_any_compile () =
  let hp =
    {
      tiny with
      Transformer.Hparams.batch = 1;
      seq = 256;
      embed = 16;
      heads = 1;
      proj = 16;
      ff = 32;
    }
  in
  let program = Transformer.Encoder.program hp in
  let inputs = layer_inputs hp 41L in
  let oracle =
    Ops.Op.lookup
      (Fastmode.with_naive (fun () -> Ops.Program.run program inputs))
      "y"
  in
  let compile device =
    Compile.Compiled.compile ?device
      ~name_table:Transformer.Encoder.kernel_names
      (Compile.Regime.current ())
      program
  in
  List.iter
    (fun order ->
      Compile.Compiled.clear_cache ();
      List.iter
        (fun (tag, device) ->
          let plan = compile device in
          check_bool (tag ^ ": attention window recognized") true
            (plan.Compile.Compiled.attn_sites <> []);
          let y = Ops.Op.lookup (Compile.Compiled.execute plan inputs) "y" in
          check_bool (tag ^ ": y bitwise equal to the naive oracle") true
            (bits_equal oracle y))
        order)
    [
      [ ("no device", None); ("device after no device", Some device) ];
      [ ("device", Some device); ("no device after device", None) ];
    ]

(* ---------------- executor rewiring ---------------- *)

let test_executor_compiled_parity () =
  let inputs = layer_inputs tiny 31L in
  let program = Transformer.Encoder.program tiny in
  let plan =
    {
      Frameworks.Executor.name = "parity";
      program;
      kernels_forward = [];
      kernels_backward = [];
      dispatch_overhead = 0.0;
    }
  in
  let oracle = Fastmode.with_naive (fun () -> Ops.Program.run program inputs) in
  let regime = Compile.Regime.current () in
  List.iter
    (fun (tag, fast) ->
      let run inputs =
        Fastmode.with_mode fast (fun () ->
            Frameworks.Executor.run regime plan inputs)
      in
      let env, _ = run inputs in
      List.iter
        (fun c ->
          check_bool (Printf.sprintf "run %s: %s" tag c) true
            (bits_equal (Ops.Op.lookup oracle c) (Ops.Op.lookup env c)))
        [ "y"; "d_x"; "d_wq"; "d_w2" ];
      (* the per-op scan covers every op's writes, planned ones included *)
      let bad = Dense.copy (List.assoc "x" inputs) in
      (Dense.unsafe_data bad).(0) <- Float.nan;
      match run (("x", bad) :: List.remove_assoc "x" inputs) with
      | _ -> Alcotest.failf "run %s: NaN input passed the scan" tag
      | exception Frameworks.Executor.Numerical_fault _ -> ())
    [ ("fast", true); ("naive", false) ]

(* ---------------- environment parsing (Substation.Env) --------------- *)

let test_env_parse () =
  let lookup table var = List.assoc_opt var table in
  let ok =
    Substation.Env.parse_with
      (lookup
         [
           ("SUBSTATION_NAIVE", "yes");
           ("SUBSTATION_GUARD", "finite");
           ("SUBSTATION_DOMAINS", "4");
         ])
  in
  check_bool "naive parsed" true ok.Substation.Env.naive;
  check_bool "guard parsed" true
    (ok.Substation.Env.guard = Some Substation.Env.Finite);
  check_bool "domains parsed" true (ok.Substation.Env.domains = Some 4);
  check_bool "clean parse has no warnings" true
    (ok.Substation.Env.warnings = []);
  (* the historical silent-typo failure mode: every malformed value is
     recorded, never dropped (a set retired variable warns too) *)
  let bad =
    Substation.Env.parse_with
      (lookup
         [
           ("SUBSTATION_NAIVE", "ture");
           ("SUBSTATION_GUARD", "nann");
           ("SUBSTATION_DOMAINS", "-2");
           ("SUBSTATION_ATTN_TILES", "32by128");
         ])
  in
  check_bool "typo'd boolean falls back to default" false
    bad.Substation.Env.naive;
  check_bool "typo'd guard falls back to default" true
    (bad.Substation.Env.guard = None);
  check_bool "negative domains rejected" true
    (bad.Substation.Env.domains = None);
  check_int "four warnings recorded" 4
    (List.length bad.Substation.Env.warnings);
  (* a retired variable is ignored, but loudly *)
  List.iter
    (fun var ->
      let retired = Substation.Env.parse_with (lookup [ (var, "1") ]) in
      match retired.Substation.Env.warnings with
      | [ w ] ->
          check_bool (var ^ " named in the retired warning") true
            (String.starts_with ~prefix:(var ^ " is retired") w)
      | ws ->
          Alcotest.failf "%s: expected one retired warning, got %d" var
            (List.length ws))
    [ "SUBSTATION_NOPLAN"; "SUBSTATION_ATTN_TILES" ];
  check_bool "describe mentions nothing spurious" true
    (String.length (Substation.Env.describe ()) > 0)

(* The verifier's equality: layout-blind, bit-exact and shape-strict. A
   permuted copy is equal; one flipped low mantissa bit, a missing axis or
   a resized one is not. *)
let test_bitwise_equal () =
  let eq = Compile.Compiled.bitwise_equal in
  let prng = Prng.create 17L in
  let a = Dense.rand prng [ ("i", 3); ("b", 2); ("j", 5) ] ~lo:(-1.0) ~hi:1.0 in
  check_bool "identical" true (eq a (Dense.copy a));
  check_bool "permuted layout" true (eq a (Dense.permute a [ "j"; "i"; "b" ]));
  let flipped = Dense.permute a [ "b"; "j"; "i" ] in
  let d = Dense.unsafe_data flipped in
  d.(7) <- Int64.float_of_bits (Int64.logxor (Int64.bits_of_float d.(7)) 1L);
  check_bool "one flipped bit" false (eq a flipped);
  check_bool "flipped bit, reversed" false (eq flipped a);
  check_bool "missing axis" false
    (eq a (Dense.zeros [ ("i", 3); ("b", 10) ]));
  check_bool "resized axis, same volume" false
    (eq (Dense.zeros [ ("i", 2); ("j", 3) ]) (Dense.zeros [ ("i", 3); ("j", 2) ]))

let () =
  Alcotest.run "compile"
    [
      ( "verify",
        [
          Alcotest.test_case "randomized encoder/decoder, every pass" `Quick
            test_verified_encoder_decoder;
          Alcotest.test_case "fast and naive backends" `Quick
            test_verified_fast_and_naive;
          Alcotest.test_case "parallel pool" `Quick test_verified_parallel;
          Alcotest.test_case "guard fallback engaged" `Quick
            test_verified_guard_fallback;
          Alcotest.test_case "keep decides attention windows" `Quick
            test_keep_decides_windows;
          Alcotest.test_case "bitwise_equal: layouts, bits, shapes" `Quick
            test_bitwise_equal;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit re-runs zero passes, keys on regime" `Quick
            test_cache_hit_zero_reruns;
          Alcotest.test_case "weight mutation: plan survives, pack refreshes"
            `Quick test_cache_weight_mutation;
          Alcotest.test_case "one plan serves every execution mode" `Quick
            test_one_plan_every_mode;
        ] );
      ( "attn",
        [
          Alcotest.test_case "exact under any compile" `Quick
            test_attention_exact_any_compile;
        ] );
      ( "executor",
        [
          Alcotest.test_case "run_functional == uncompiled interpreter" `Quick
            test_executor_compiled_parity;
        ] );
      ( "env",
        [ Alcotest.test_case "single parse point, loud typos" `Quick test_env_parse ] );
    ]

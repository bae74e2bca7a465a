(* Tests for the resilience layer: determinism of the seeded fault model,
   retrying/outlier-robust perfdb sweeps, checkpoint/resume round-trips,
   degraded-mode selection on holed databases, and the interpreter's
   numerical guards. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let device = Gpu.Device.v100
let tiny = Transformer.Hparams.tiny

let tiny_fused =
  lazy
    (Substation.Fusion.fuse ~name_table:Transformer.Encoder.kernel_names
       (Transformer.Encoder.program tiny))

let tiny_db = lazy (Substation.Perfdb.build ~device (Lazy.force tiny_fused))

let spec ~rate ~sigma = Gpu.Faults.uniform_rate ~seed:7L ~noise_sigma:sigma rate

let contains msg sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
  in
  go 0

(* ---------------- fault model ---------------- *)

let test_inject_deterministic () =
  let s = spec ~rate:0.3 ~sigma:0.1 in
  let draws seed =
    let s = { s with Gpu.Faults.seed } in
    List.init 60 (fun i ->
        Gpu.Faults.inject s ~op:"op"
          ~config:(string_of_int (i mod 7))
          ~attempt:(i / 7) 1.0)
  in
  check_bool "same seed, same outcomes" true (draws 7L = draws 7L);
  check_bool "different seed, different outcomes" true (draws 7L <> draws 8L)

let test_inject_clean_identity () =
  check_bool "clean spec is the identity" true
    (Gpu.Faults.inject Gpu.Faults.none ~op:"x" ~config:"y" ~attempt:0 3.14
    = Gpu.Faults.Measured 3.14)

let test_permanent_stable_under_retry () =
  let s = Gpu.Faults.make ~seed:1L ~permanent_rate:0.5 () in
  let quarantined_at attempt i =
    Gpu.Faults.inject s ~op:"o" ~config:(string_of_int i) ~attempt 1.0
    = Gpu.Faults.Failed Gpu.Faults.Quarantine
  in
  let quarantined =
    List.filter (quarantined_at 0) (List.init 20 (fun i -> i))
  in
  check_bool "some configurations draw a permanent fault" true
    (quarantined <> []);
  List.iter
    (fun i ->
      List.iter
        (fun a ->
          check_bool "quarantine survives retries" true (quarantined_at a i))
        [ 1; 2; 5 ])
    quarantined

let test_backoff_policy () =
  check_bool "first try waits nothing" true (Gpu.Faults.backoff 0 = 0.0);
  check_bool "doubles" true
    (Gpu.Faults.backoff 2 = 2.0 *. Gpu.Faults.backoff 1);
  check_bool "capped" true (Gpu.Faults.backoff ~cap:0.25 30 = 0.25)

(* ---------------- clean equivalence ---------------- *)

let test_clean_build_byte_identical () =
  let program = Lazy.force tiny_fused in
  let a = Lazy.force tiny_db in
  let b = Substation.Perfdb.build ~faults:Gpu.Faults.none ~device program in
  check_string "identical databases"
    (Substation.Perfdb.export_csv a)
    (Substation.Perfdb.export_csv b);
  let sa = Substation.Selector.select a and sb = Substation.Selector.select b in
  check_bool "identical selection" true
    (sa.Substation.Selector.total_time = sb.Substation.Selector.total_time);
  check_bool "no degradation on a clean database" true
    (sa.Substation.Selector.degradation.Substation.Selector.degraded_ops = [])

(* ---------------- faulty sweep ---------------- *)

let test_faulty_sweep_completes_via_retries () =
  let program = Lazy.force tiny_fused in
  let faults = spec ~rate:0.1 ~sigma:0.02 in
  let db = Substation.Perfdb.build ~faults ~device program in
  let st = Substation.Perfdb.stats db in
  check_bool "sweep retried transient failures" true
    (st.Substation.Perfdb.retries > 0);
  check_bool "simulated backoff accrued" true
    (st.Substation.Perfdb.backoff_time > 0.0);
  check_bool "10% transient rate leaves no holes" true
    (Substation.Perfdb.holes db = []);
  let sel = Substation.Selector.select db in
  check_bool "selection on the faulty database is finite" true
    (Float.is_finite sel.Substation.Selector.total_time
    && sel.Substation.Selector.total_time > 0.0);
  let db2 = Substation.Perfdb.build ~faults ~device program in
  check_string "faulty sweep is deterministic"
    (Substation.Perfdb.export_csv db)
    (Substation.Perfdb.export_csv db2)

let test_quarantine_is_recorded () =
  let program = Lazy.force tiny_fused in
  let faults = spec ~rate:0.3 ~sigma:0.0 in
  let db = Substation.Perfdb.build ~faults ~device program in
  let q = Substation.Perfdb.quarantine db in
  check_bool "permanent faults quarantined" true (q <> []);
  check_int "stats agree with the record"
    (List.length q)
    (Substation.Perfdb.stats db).Substation.Perfdb.quarantined_configs;
  List.iter
    (fun (r : Substation.Perfdb.quarantined) ->
      check_bool "quarantine names the op" true
        (List.mem r.Substation.Perfdb.q_op (Substation.Perfdb.op_names db)))
    q

(* ---------------- checkpoint / resume ---------------- *)

let test_checkpoint_resume_equal () =
  let program = Lazy.force tiny_fused in
  let faults = spec ~rate:0.08 ~sigma:0.03 in
  let path = Filename.temp_file "perfdb" ".ckpt" in
  Sys.remove path;
  (try
     ignore
       (Substation.Perfdb.build ~faults ~device ~checkpoint:path
          ~interrupt_after:2 program);
     Alcotest.fail "expected Perfdb.Interrupted"
   with Substation.Perfdb.Interrupted p ->
     check_string "Interrupted carries the checkpoint path" path p);
  check_bool "checkpoint written before the interrupt" true
    (Sys.file_exists path);
  let resumed =
    Substation.Perfdb.build ~faults ~device ~checkpoint:path program
  in
  check_int "two ops restored from the checkpoint" 2
    (Substation.Perfdb.stats resumed).Substation.Perfdb.resumed_ops;
  check_bool "checkpoint deleted once the sweep completes" false
    (Sys.file_exists path);
  let direct = Substation.Perfdb.build ~faults ~device program in
  check_string "interrupt + resume equals the uninterrupted sweep"
    (Substation.Perfdb.export_csv direct)
    (Substation.Perfdb.export_csv resumed)

let test_checkpoint_rejects_mismatched_sweep () =
  let program = Lazy.force tiny_fused in
  let faults = spec ~rate:0.08 ~sigma:0.03 in
  let path = Filename.temp_file "perfdb" ".ckpt" in
  Sys.remove path;
  (try
     ignore
       (Substation.Perfdb.build ~faults ~device ~checkpoint:path
          ~interrupt_after:1 program)
   with Substation.Perfdb.Interrupted _ -> ());
  (try
     ignore
       (Substation.Perfdb.build ~faults ~device:Gpu.Device.a100
          ~checkpoint:path program);
     Alcotest.fail "expected a fingerprint mismatch"
   with Invalid_argument msg ->
     check_bool "mismatch message says what to do" true
       (contains msg "different sweep"));
  Sys.remove path

(* ---------------- degraded-mode selection ---------------- *)

let test_degraded_selection_on_punched_db () =
  let db = Lazy.force tiny_db in
  let clean = Substation.Selector.select db in
  let names =
    List.filteri (fun i _ -> i < 2) (Substation.Perfdb.op_names db)
  in
  let holed = Substation.Perfdb.punched db names in
  check_bool "punched ops are holes" true
    (Substation.Perfdb.holes holed = names);
  let sel = Substation.Selector.select holed in
  let d = sel.Substation.Selector.degradation in
  check_bool "degradation report is non-empty" true
    (d.Substation.Selector.degraded_ops <> []);
  List.iter
    (fun name ->
      check_bool (name ^ " reported degraded") true
        (List.exists
           (fun (o : Substation.Selector.degraded_op) ->
             o.Substation.Selector.d_op = name)
           d.Substation.Selector.degraded_ops))
    names;
  check_int "forward op count preserved"
    (List.length clean.Substation.Selector.forward)
    (List.length sel.Substation.Selector.forward);
  check_int "backward op count preserved"
    (List.length clean.Substation.Selector.backward)
    (List.length sel.Substation.Selector.backward);
  check_bool "penalty is finite and non-negative" true
    (Float.is_finite d.Substation.Selector.time_penalty
    && d.Substation.Selector.time_penalty >= 0.0);
  check_bool "degraded selection is not faster than clean" true
    (sel.Substation.Selector.total_time
    >= clean.Substation.Selector.total_time -. 1e-12);
  let g = Substation.Selector.greedy holed in
  check_bool "greedy also degrades instead of raising" true
    (g.Substation.Selector.degradation.Substation.Selector.degraded_ops <> [])

let test_error_messages_carry_remediation () =
  let db = Lazy.force tiny_db in
  (try
     ignore (Substation.Perfdb.entries db "no_such_op");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument msg ->
     check_bool "entries names the op and the remedy" true
       (contains msg "no_such_op" && contains msg "known operators"));
  let first = List.hd (Substation.Perfdb.op_names db) in
  let holed = Substation.Perfdb.punched db [ first ] in
  try
    ignore (Substation.Perfdb.best holed first);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument msg ->
    check_bool "best on a hole points at the degraded path" true
      (contains msg first && contains msg "best_opt")

(* ---------------- interpreter numerical guards ---------------- *)

let test_numerical_guard_names_offender () =
  let plan =
    Frameworks.Pytorch_sim.plan ~device
      ~workload:Frameworks.Executor.Encoder_layer tiny
  in
  let prng = Prng.create 5L in
  let params = Transformer.Params.init tiny in
  let x = Transformer.Params.random_input tiny prng in
  let d_y = Transformer.Params.random_cotangent tiny prng in
  (Dense.unsafe_data x).(0) <- Float.nan;
  let inputs = ("x", x) :: ("d_y", d_y) :: params in
  (try
     ignore
       (Frameworks.Executor.run (Compile.Regime.current ()) plan inputs);
     Alcotest.fail "expected Numerical_fault"
   with Frameworks.Executor.Numerical_fault { fault_op; container; value } ->
     check_bool "names the offending op" true (fault_op <> "");
     check_bool "names the container" true (container <> "");
     check_string "classifies the value" "NaN" value);
  (* the guard can be bypassed explicitly *)
  ignore
    (Frameworks.Executor.run ~check:Frameworks.Executor.No_check
       (Compile.Regime.current ())
       plan inputs)

let test_clean_run_passes_guard () =
  let plan =
    Frameworks.Pytorch_sim.plan ~device
      ~workload:Frameworks.Executor.Encoder_layer tiny
  in
  let prng = Prng.create 6L in
  let params = Transformer.Params.init tiny in
  let inputs =
    ("x", Transformer.Params.random_input tiny prng)
    :: ("d_y", Transformer.Params.random_cotangent tiny prng)
    :: params
  in
  let env, _ =
    Frameworks.Executor.run (Compile.Regime.current ()) plan inputs
  in
  check_bool "produced the output" true (Ops.Op.lookup env "y" <> Dense.scalar 0.)

let () =
  Alcotest.run "faults"
    [
      ( "fault model",
        [
          Alcotest.test_case "deterministic in the seed" `Quick
            test_inject_deterministic;
          Alcotest.test_case "clean spec is the identity" `Quick
            test_inject_clean_identity;
          Alcotest.test_case "permanent faults survive retries" `Quick
            test_permanent_stable_under_retry;
          Alcotest.test_case "backoff policy" `Quick test_backoff_policy;
        ] );
      ( "perfdb resilience",
        [
          Alcotest.test_case "clean build is byte-identical" `Quick
            test_clean_build_byte_identical;
          Alcotest.test_case "faulty sweep completes via retries" `Quick
            test_faulty_sweep_completes_via_retries;
          Alcotest.test_case "quarantine recorded" `Quick
            test_quarantine_is_recorded;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "interrupt/resume equals uninterrupted" `Quick
            test_checkpoint_resume_equal;
          Alcotest.test_case "mismatched checkpoint rejected" `Quick
            test_checkpoint_rejects_mismatched_sweep;
        ] );
      ( "degraded selection",
        [
          Alcotest.test_case "selection on punched holes" `Quick
            test_degraded_selection_on_punched_db;
          Alcotest.test_case "error messages carry remediation" `Quick
            test_error_messages_carry_remediation;
        ] );
      ( "numerical guards",
        [
          Alcotest.test_case "NaN input names the offender" `Quick
            test_numerical_guard_names_offender;
          Alcotest.test_case "clean run passes" `Quick
            test_clean_run_passes_guard;
        ] );
    ]

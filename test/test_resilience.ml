(* Tests for the resilient execution runtime: pool supervision (deadlines,
   cancellation tokens, structured worker-failure capture, respawn),
   guarded fast kernels with oracle fallback (crash / NaN-corruption /
   hang recovery, circuit breakers, quarantine), the executor's
   resilience policy and run report, and crash-safe training checkpoints
   that resume bitwise-identically. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- pool supervision ---------------- *)

let test_deadline_exceeded () =
  match
    Pool.with_deadline ~scope:"slow loop" 0.01 (fun () ->
        let t0 = Pool.now () in
        while Pool.now () -. t0 < 1.0 do
          Pool.check_cancel ();
          Unix.sleepf 0.002
        done)
  with
  | () -> Alcotest.fail "deadline never fired"
  | exception Pool.Deadline_exceeded { label; overrun } ->
      check_string "deadline names its scope" "slow loop" label;
      check_bool "overrun is non-negative" true (overrun >= 0.0)

let test_deadline_nested_min () =
  (* The inner 10s budget must not extend the outer 10ms one. *)
  match
    Pool.with_deadline 0.01 (fun () ->
        Pool.with_deadline ~scope:"inner" 10.0 (fun () ->
            let t0 = Pool.now () in
            while Pool.now () -. t0 < 1.0 do
              Pool.check_cancel ();
              Unix.sleepf 0.002
            done))
  with
  | () -> Alcotest.fail "nested deadline never fired"
  | exception Pool.Deadline_exceeded _ -> ()

let test_deadline_rejects_nonpositive () =
  Alcotest.check_raises "zero budget rejected"
    (Invalid_argument "Pool.with_deadline: budget must be positive")
    (fun () -> Pool.with_deadline 0.0 (fun () -> ()))

let test_token_cancels_region () =
  Pool.with_domains 2 (fun () ->
      let t = Pool.create_token () in
      match
        Pool.with_token ~scope:"cancelled job" t (fun () ->
            Pool.parallel_for ~label:"cancellable" ~chunks:8 ~start:0
              ~finish:8_000_000
              (fun lo _hi -> if lo = 0 then Pool.cancel t))
      with
      | () ->
          (* All chunks may have been claimed before the cancel landed;
             the token must still read as cancelled. *)
          check_bool "token observed" true (Pool.cancelled t)
      | exception Pool.Cancelled -> check_bool "token observed" true (Pool.cancelled t))

let test_worker_failure_captured () =
  Pool.with_domains 4 (fun () ->
      let faults = Gpu.Faults.make_exec ~seed:3L ~chunk_crash_rate:1.0 () in
      let respawns_before = Pool.respawn_count () in
      (match
         Gpu.Faults.with_exec_faults faults (fun () ->
             Pool.parallel_for ~label:"doomed region" ~chunks:4 ~start:0
               ~finish:4096
               (fun _lo _hi -> ()))
       with
      | () -> Alcotest.fail "injected chunk crash did not propagate"
      | exception Execfault.Injected_crash { chunk; _ } ->
          check_bool "crash carries a chunk id" true (chunk >= 0));
      (match Pool.last_failure () with
      | None -> Alcotest.fail "no structured failure recorded"
      | Some f ->
          check_string "failure names the job" "doomed region" f.Pool.f_label;
          check_bool "failure records the chunk" true (f.Pool.f_chunk >= 0));
      check_bool "pool respawned after the poisoned job" true
        (Pool.respawn_count () > respawns_before);
      (* The pool must be healthy again: a clean region still works. *)
      let total =
        Pool.parallel_for_reduce ~label:"after respawn" ~chunks:4 ~start:0
          ~finish:100 ~init:0 ~combine:( + )
          (fun lo hi ->
            let s = ref 0 in
            for i = lo to hi - 1 do s := !s + i done;
            !s)
      in
      check_int "pool works after respawn" 4950 total)

(* ---------------- guarded kernels ---------------- *)

let bitwise_equal a b = Dense.max_abs_diff a b = 0.0

let mk_mat prng axes dims =
  Dense.rand prng (List.combine axes dims) ~lo:(-1.0) ~hi:1.0

let test_crash_falls_back_bitwise () =
  Guard.reset ();
  let prng = Prng.create 17L in
  let a = mk_mat prng [ "b"; "i"; "k" ] [ 3; 8; 16 ] in
  let b = mk_mat prng [ "b"; "k"; "j" ] [ 3; 16; 8 ] in
  let oracle = Fastmode.with_mode false (fun () -> Einsum.eval "bik,bkj->bij" [ a; b ]) in
  let faults = Gpu.Faults.make_exec ~seed:5L ~crash_rate:1.0 () in
  let faulted =
    Gpu.Faults.with_exec_faults faults (fun () ->
        Fastmode.with_mode true (fun () -> Einsum.eval "bik,bkj->bij" [ a; b ]))
  in
  check_bool "fallback result is the oracle, bitwise" true
    (bitwise_equal oracle faulted);
  let q = Guard.quarantine () in
  check_bool "quarantine recorded the crash" true
    (List.exists
       (fun (e : Guard.entry) ->
         e.Guard.q_kernel = "einsum.matmul" && e.Guard.q_reason = "injected crash")
       q);
  Guard.reset ()

let test_breaker_trips_after_repeated_failures () =
  Guard.reset ();
  let prng = Prng.create 23L in
  let a = mk_mat prng [ "i"; "k" ] [ 4; 4 ] in
  let b = mk_mat prng [ "k"; "j" ] [ 4; 4 ] in
  let faults = Gpu.Faults.make_exec ~seed:9L ~crash_rate:1.0 () in
  Gpu.Faults.with_exec_faults faults (fun () ->
      Fastmode.with_mode true (fun () ->
          for _ = 1 to 5 do
            ignore (Einsum.eval "ik,kj->ij" [ a; b ])
          done));
  check_bool "breaker open after repeated crashes" true
    (Guard.tripped "einsum.matmul");
  (* Breaker-open launches route straight to the oracle, even clean. *)
  let oracle = Fastmode.with_mode false (fun () -> Einsum.eval "ik,kj->ij" [ a; b ]) in
  let routed = Fastmode.with_mode true (fun () -> Einsum.eval "ik,kj->ij" [ a; b ]) in
  check_bool "breaker-open result is the oracle" true (bitwise_equal oracle routed);
  Guard.reset ();
  check_bool "reset closes the breaker" false (Guard.tripped "einsum.matmul")

let test_nan_corruption_recovered () =
  Guard.reset ();
  let prng = Prng.create 31L in
  let a = mk_mat prng [ "i"; "k" ] [ 6; 6 ] in
  let b = mk_mat prng [ "k"; "j" ] [ 6; 6 ] in
  let oracle = Fastmode.with_mode false (fun () -> Einsum.eval "ik,kj->ij" [ a; b ]) in
  let faults = Gpu.Faults.make_exec ~seed:2L ~corrupt_rate:1.0 () in
  let healed =
    Guard.with_level Guard.Nan (fun () ->
        Gpu.Faults.with_exec_faults faults (fun () ->
            Fastmode.with_mode true (fun () -> Einsum.eval "ik,kj->ij" [ a; b ])))
  in
  check_bool "NaN/Inf corruption healed to the oracle, bitwise" true
    (bitwise_equal oracle healed);
  Guard.reset ()

let test_fallback_disabled_raises () =
  Guard.reset ();
  let prng = Prng.create 37L in
  let a = mk_mat prng [ "i"; "k" ] [ 4; 4 ] in
  let b = mk_mat prng [ "k"; "j" ] [ 4; 4 ] in
  let faults = Gpu.Faults.make_exec ~seed:2L ~corrupt_rate:1.0 () in
  (match
     Guard.with_level Guard.Nan (fun () ->
         Guard.with_fallback false (fun () ->
             Gpu.Faults.with_exec_faults faults (fun () ->
                 Fastmode.with_mode true (fun () ->
                     Einsum.eval "ik,kj->ij" [ a; b ]))))
   with
  | _ -> Alcotest.fail "disabled fallback should raise"
  | exception Guard.Guard_fault { kernel; _ } ->
      check_string "fault names the kernel" "einsum.matmul" kernel);
  Guard.reset ()

let test_guard_off_propagates () =
  Guard.reset ();
  let prng = Prng.create 41L in
  let a = mk_mat prng [ "i"; "k" ] [ 4; 4 ] in
  let b = mk_mat prng [ "k"; "j" ] [ 4; 4 ] in
  let faults = Gpu.Faults.make_exec ~seed:5L ~crash_rate:1.0 () in
  (match
     Guard.with_level Guard.Off (fun () ->
         Gpu.Faults.with_exec_faults faults (fun () ->
             Fastmode.with_mode true (fun () -> Einsum.eval "ik,kj->ij" [ a; b ])))
   with
  | _ -> Alcotest.fail "unguarded crash should propagate"
  | exception Execfault.Injected_crash _ -> ());
  Guard.reset ()

let test_hang_times_out_to_fallback () =
  Guard.reset ();
  let prng = Prng.create 43L in
  let a = mk_mat prng [ "i"; "k" ] [ 4; 4 ] in
  let b = mk_mat prng [ "k"; "j" ] [ 4; 4 ] in
  let oracle = Fastmode.with_mode false (fun () -> Einsum.eval "ik,kj->ij" [ a; b ]) in
  let faults = Gpu.Faults.make_exec ~seed:11L ~hang_rate:1.0 ~hang_seconds:0.5 () in
  let t0 = Pool.now () in
  let healed =
    Guard.with_kernel_timeout (Some 0.01) (fun () ->
        Gpu.Faults.with_exec_faults faults (fun () ->
            Fastmode.with_mode true (fun () -> Einsum.eval "ik,kj->ij" [ a; b ])))
  in
  check_bool "hang cut short by the kernel budget" true (Pool.now () -. t0 < 0.4);
  check_bool "timed-out kernel healed to the oracle" true
    (bitwise_equal oracle healed);
  check_bool "quarantine recorded the timeout" true
    (List.exists
       (fun (e : Guard.entry) -> e.Guard.q_reason = "kernel timeout")
       (Guard.quarantine ()));
  Guard.reset ()

(* The streaming attention kernel runs under the same guard. KV-cached
   decode (Model.decode_batch -> Mha.attend) with every fast kernel
   crashing heals each step's attention to the naive einsum +
   masked-softmax chain (whose own crashed einsums heal to their oracles),
   so the logits land bitwise on the all-naive run and the quarantine
   names the streaming kernel. *)
let test_flashattn_crash_heals () =
  Guard.reset ();
  let module H = Transformer.Hparams in
  let module M = Transformer.Model in
  let vocab = 11 and steps = 5 in
  let hp = { (H.with_dropout H.tiny 0.0) with H.seed = 53L } in
  let m = M.create ~n_layers:2 ~vocab hp in
  let prng = Prng.create 53L in
  let prompts =
    Array.init 2 (fun _ ->
        Array.init steps (fun _ -> Prng.int prng ~bound:vocab))
  in
  let decode () =
    let sessions = Array.map (fun _ -> M.new_session m) prompts in
    List.init steps (fun t ->
        M.decode_batch m sessions ~tokens:(Array.map (fun p -> p.(t)) prompts))
  in
  let oracle = Fastmode.with_mode false decode in
  let faults = Gpu.Faults.make_exec ~seed:19L ~crash_rate:1.0 () in
  let healed =
    Gpu.Faults.with_exec_faults faults (fun () ->
        Fastmode.with_mode true decode)
  in
  check_bool "crashed attention kernel healed to the naive chain, bitwise"
    true
    (List.for_all2 bitwise_equal oracle healed);
  check_bool "quarantine names the streaming kernel" true
    (List.exists
       (fun (e : Guard.entry) ->
         e.Guard.q_kernel = "flashattn.attend"
         && e.Guard.q_reason = "injected crash")
       (Guard.quarantine ()));
  Guard.reset ()

(* ---------------- executor resilience matrix ---------------- *)

let encoder_hp =
  { Transformer.Hparams.tiny with batch = 2; seq = 8; embed = 16; heads = 2;
    proj = 8; ff = 32; dropout_p = 0.1 }

let encoder_plan () =
  let program =
    Substation.Fusion.fuse ~name_table:Transformer.Encoder.kernel_names
      (Transformer.Encoder.program encoder_hp)
  in
  {
    Frameworks.Executor.name = "resilience-test";
    program;
    kernels_forward = [];
    kernels_backward = [];
    dispatch_overhead = 0.0;
  }

let encoder_inputs () =
  let prng = Prng.create 47L in
  let params = Transformer.Params.init encoder_hp in
  let x = Transformer.Params.random_input encoder_hp prng in
  let d_y = Transformer.Params.random_cotangent encoder_hp prng in
  ("x", x) :: ("d_y", d_y) :: params

let envs_bitwise_equal a b =
  check_int "same containers materialized" (Hashtbl.length a) (Hashtbl.length b);
  Hashtbl.iter
    (fun c t ->
      match Hashtbl.find_opt b c with
      | None -> Alcotest.failf "container %s missing" c
      | Some t' ->
          let d = Dense.max_abs_diff t t' in
          if d <> 0.0 then
            Alcotest.failf "container %s differs by %g (not bitwise)" c d)
    a

(* Execute [plan] on the fast backend under kernel-guard level [guard]. *)
let run_guarded_fast ~resilience guard plan inputs =
  Fastmode.with_mode true (fun () ->
      Guard.with_level guard (fun () ->
          Frameworks.Executor.run ~resilience (Compile.Regime.current ()) plan
            inputs))

(* The acceptance matrix: under a crash-every-kernel campaign, the guard
   routes every fast kernel to the oracle, so the faulted fast run is
   bitwise identical to a clean naive run of the same plan — and the run
   report lists the engaged fallbacks. Checked serial and parallel. *)
let run_recovery_matrix ~domains () =
  Pool.with_domains domains (fun () ->
      Guard.reset ();
      let plan = encoder_plan () in
      let inputs = encoder_inputs () in
      let clean_naive, _ =
        Fastmode.with_naive (fun () ->
            Frameworks.Executor.run ~check:Frameworks.Executor.No_check
              (Compile.Regime.current ()) plan inputs)
      in
      let faults = Gpu.Faults.make_exec ~seed:13L ~crash_rate:1.0 () in
      let faulted, report =
        Gpu.Faults.with_exec_faults faults (fun () ->
            run_guarded_fast ~resilience:Frameworks.Executor.default_resilience
              Guard.Finite plan inputs)
      in
      envs_bitwise_equal clean_naive faulted;
      check_bool "run report lists engaged fallbacks" true
        (report.Frameworks.Executor.rr_fallbacks <> []);
      List.iter
        (fun (e : Guard.event) ->
          check_bool "fallback reasons are crash or open breaker" true
            (e.Guard.e_reason = "injected crash"
            || e.Guard.e_reason = "circuit breaker open"))
        report.Frameworks.Executor.rr_fallbacks;
      check_bool "quarantine populated" true
        (report.Frameworks.Executor.rr_quarantine <> []);
      Guard.reset ())

(* Fused groups and attention windows drop their members' intermediates
   on every path, so the raw encoder's planned env holds the same
   containers on the fast backend, the naive one, and when the guard
   replays every fast kernel through its oracle. *)
let test_env_backend_independent () =
  let plan =
    { (encoder_plan ()) with
      Frameworks.Executor.program = Transformer.Encoder.program encoder_hp }
  in
  let inputs = encoder_inputs () in
  let names env =
    List.sort compare (Hashtbl.fold (fun c _ acc -> c :: acc) env [])
  in
  List.iter
    (fun attention ->
      Guard.reset ();
      let run () =
        Frameworks.Executor.run ~check:Frameworks.Executor.No_check
          (Compile.Regime.current ~attention ())
          plan inputs
      in
      let fast, _ = Fastmode.with_mode true run in
      let naive, _ = Fastmode.with_naive run in
      let faults = Gpu.Faults.make_exec ~seed:13L ~crash_rate:1.0 () in
      let fallback, report =
        Gpu.Faults.with_exec_faults faults (fun () ->
            Fastmode.with_mode true run)
      in
      check_bool "every fast kernel fell back" true
        (report.Frameworks.Executor.rr_fallbacks <> []);
      let label what = Printf.sprintf "attention %b: %s" attention what in
      Alcotest.(check (list string))
        (label "naive env = fast env") (names fast) (names naive);
      Alcotest.(check (list string))
        (label "fallback env = fast env") (names fast) (names fallback);
      Guard.reset ())
    [ false; true ]

let test_recovery_matrix_serial () = run_recovery_matrix ~domains:1 ()
let test_recovery_matrix_parallel () = run_recovery_matrix ~domains:4 ()

(* A mixed campaign (crashes + corruption + hangs at partial rates) must
   complete under the policy and stay within the fused-vs-unfused
   numerical agreement bound of the clean run. *)
let test_mixed_campaign_completes () =
  Guard.reset ();
  let plan = encoder_plan () in
  let inputs = encoder_inputs () in
  let clean, _ =
    Fastmode.with_mode true (fun () ->
        Frameworks.Executor.run ~check:Frameworks.Executor.No_check
          (Compile.Regime.current ()) plan inputs)
  in
  let faults =
    Gpu.Faults.make_exec ~seed:29L ~crash_rate:0.3 ~corrupt_rate:0.3
      ~hang_rate:0.1 ~hang_seconds:0.2 ()
  in
  let resilience =
    {
      Frameworks.Executor.default_resilience with
      kernel_timeout = Some 0.01;
      retries = 2;
    }
  in
  let faulted, report =
    Gpu.Faults.with_exec_faults faults (fun () ->
        run_guarded_fast ~resilience Guard.Finite plan inputs)
  in
  check_bool "mixed campaign engaged at least one fallback" true
    (report.Frameworks.Executor.rr_fallbacks <> []);
  Hashtbl.iter
    (fun c t ->
      match Hashtbl.find_opt faulted c with
      | None -> Alcotest.failf "container %s missing" c
      | Some t' ->
          let d = Dense.max_abs_diff t t' in
          if d > 1e-9 then
            Alcotest.failf "container %s differs by %g under faults" c d)
    clean;
  Guard.reset ()

let test_run_deadline_propagates () =
  Guard.reset ();
  let plan = encoder_plan () in
  let inputs = encoder_inputs () in
  let faults =
    Gpu.Faults.make_exec ~seed:7L ~hang_rate:1.0 ~hang_seconds:10.0 ()
  in
  let resilience =
    {
      Frameworks.Executor.default_resilience with
      deadline = Some 0.05;
      retries = 0;
    }
  in
  (match
     Gpu.Faults.with_exec_faults faults (fun () ->
         run_guarded_fast ~resilience Guard.Nan plan inputs)
   with
  | _ -> Alcotest.fail "blown run deadline should propagate"
  | exception Pool.Deadline_exceeded _ -> ());
  Guard.reset ()

(* ---------------- training checkpoints ---------------- *)

let train_hp =
  { Transformer.Hparams.tiny with batch = 2; seq = 6; embed = 12; heads = 2;
    proj = 6; ff = 24; dropout_p = 0.0 }

let fixed_tokens () =
  Transformer.Training.random_batch (Prng.create 99L) ~vocab:13
    ~batch:train_hp.Transformer.Hparams.batch
    ~seq:train_hp.Transformer.Hparams.seq

let logits_of m =
  (Transformer.Model.forward m ~tokens:(fixed_tokens ())).Transformer.Model.logits

let test_checkpoint_resume_bitwise optimizer () =
  let ckpt = Filename.temp_file "substation-train" ".ckpt" in
  Sys.remove ckpt;
  let steps = 5 and lr = 0.05 in
  (* Uninterrupted reference run. *)
  let m_ref = Transformer.Model.create ~n_layers:2 ~vocab:13 train_hp in
  let h_ref =
    Transformer.Training.train ~optimizer m_ref ~steps ~lr (Prng.create 7L)
  in
  (* Interrupted run: crash every step, resume until it completes. *)
  let m = Transformer.Model.create ~n_layers:2 ~vocab:13 train_hp in
  let prng = Prng.create 7L in
  let resumes = ref 0 in
  let rec go () =
    match
      Transformer.Training.train ~optimizer ~checkpoint:ckpt ~interrupt_after:1
        m ~steps ~lr prng
    with
    | h -> h
    | exception Transformer.Training.Interrupted path ->
        check_string "Interrupted carries the checkpoint path" ckpt path;
        check_bool "checkpoint on disk at the crash point" true
          (Sys.file_exists ckpt);
        incr resumes;
        go ()
  in
  let h = go () in
  check_bool "run was actually interrupted and resumed" true (!resumes >= steps - 1);
  check_bool "checkpoint removed on completion" false (Sys.file_exists ckpt);
  Array.iteri
    (fun i l ->
      check_bool
        (Printf.sprintf "loss %d bitwise equal" i)
        true
        (Int64.equal (Int64.bits_of_float l) (Int64.bits_of_float h.Transformer.Training.losses.(i))))
    h_ref.Transformer.Training.losses;
  check_bool "final model bitwise identical to uninterrupted run" true
    (Dense.max_abs_diff (logits_of m_ref) (logits_of m) = 0.0)

let test_checkpoint_rejects_mismatched_run () =
  let ckpt = Filename.temp_file "substation-train" ".ckpt" in
  Sys.remove ckpt;
  let m = Transformer.Model.create ~n_layers:2 ~vocab:13 train_hp in
  (match
     Transformer.Training.train ~checkpoint:ckpt ~interrupt_after:1 m ~steps:4
       ~lr:0.05 (Prng.create 7L)
   with
  | _ -> Alcotest.fail "expected an interrupt"
  | exception Transformer.Training.Interrupted _ -> ());
  (* Same path, different run shape: must be rejected, not resumed. *)
  (match
     Transformer.Training.train ~checkpoint:ckpt m ~steps:9 ~lr:0.05
       (Prng.create 7L)
   with
  | _ -> Alcotest.fail "mismatched checkpoint accepted"
  | exception Invalid_argument _ -> ());
  Sys.remove ckpt

(* ---------------- arena hygiene ---------------- *)

let test_arena_reset_and_double_release () =
  let arena = Arena.create () in
  Arena.with_scratch arena 64 (fun buf ->
      buf.(0) <- 1.0;
      (* Resetting mid-borrow must not break the protected release. *)
      Arena.reset arena);
  Arena.with_scratch arena 64 (fun buf -> buf.(1) <- 2.0);
  (* A fresh borrow after reset + re-pool still works and is sized right. *)
  Arena.with_scratch arena 64 (fun buf ->
      check_int "scratch length preserved" 64 (Array.length buf))

let () =
  Alcotest.run "resilience"
    [
      ( "pool supervision",
        [
          Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
          Alcotest.test_case "nested deadlines take the min" `Quick
            test_deadline_nested_min;
          Alcotest.test_case "non-positive budget rejected" `Quick
            test_deadline_rejects_nonpositive;
          Alcotest.test_case "token cancels a region" `Quick
            test_token_cancels_region;
          Alcotest.test_case "worker failure captured, pool respawns" `Quick
            test_worker_failure_captured;
        ] );
      ( "guarded kernels",
        [
          Alcotest.test_case "crash falls back to oracle bitwise" `Quick
            test_crash_falls_back_bitwise;
          Alcotest.test_case "circuit breaker trips and resets" `Quick
            test_breaker_trips_after_repeated_failures;
          Alcotest.test_case "NaN corruption healed" `Quick
            test_nan_corruption_recovered;
          Alcotest.test_case "disabled fallback raises" `Quick
            test_fallback_disabled_raises;
          Alcotest.test_case "guard off propagates crashes" `Quick
            test_guard_off_propagates;
          Alcotest.test_case "hang times out to fallback" `Quick
            test_hang_times_out_to_fallback;
          Alcotest.test_case "streaming attention crash heals" `Quick
            test_flashattn_crash_heals;
        ] );
      ( "executor resilience",
        [
          Alcotest.test_case "recovery matrix, serial" `Quick
            test_recovery_matrix_serial;
          Alcotest.test_case "recovery matrix, parallel" `Quick
            test_recovery_matrix_parallel;
          Alcotest.test_case "planned env is backend-independent" `Quick
            test_env_backend_independent;
          Alcotest.test_case "mixed campaign completes" `Quick
            test_mixed_campaign_completes;
          Alcotest.test_case "run deadline propagates" `Quick
            test_run_deadline_propagates;
        ] );
      ( "training checkpoints",
        [
          Alcotest.test_case "interrupt/resume bitwise (SGD)" `Quick
            (test_checkpoint_resume_bitwise Transformer.Training.Sgd);
          Alcotest.test_case "interrupt/resume bitwise (Adam)" `Quick
            (test_checkpoint_resume_bitwise Transformer.Training.Adam);
          Alcotest.test_case "mismatched checkpoint rejected" `Quick
            test_checkpoint_rejects_mismatched_run;
        ] );
      ( "arena hygiene",
        [
          Alcotest.test_case "reset and double-release safe" `Quick
            test_arena_reset_and_double_release;
        ] );
    ]

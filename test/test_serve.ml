(* Tests for the inference serving stack: KV-cached incremental decoding
   bitwise-equal to the full-recompute oracle (straight and under permuted
   parameter layouts, single and ragged batches), scheduler determinism
   under a fixed trace seed, deadline shedding, continuous-batching
   retirement, admission control, and metrics histogram counts. *)

let q = QCheck_alcotest.to_alcotest
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let shuffle_list prng xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Prng.int prng ~bound:(i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

module M = Transformer.Model
module H = Transformer.Hparams

let hp0 = { (H.with_dropout H.tiny 0.0) with H.seed = 11L }

let vocab = 13

(* ---------------- KV-cached decode vs full-recompute oracle --------- *)

let check_column ~what got want =
  check_int (what ^ " vocab size") (Array.length want) (Array.length got);
  Array.iteri
    (fun vi w ->
      check_bool
        (Printf.sprintf "%s logit %d bitwise" what vi)
        true
        (Float.equal got.(vi) w))
    want

let test_decode_bitwise_steps () =
  let m = M.create ~n_layers:2 ~vocab hp0 in
  List.iter
    (fun l ->
      let prng = Prng.create 42L in
      let prompt = Array.init l (fun _ -> Prng.int prng ~bound:vocab) in
      let s = M.new_session m in
      for t = 0 to l - 1 do
        let logits =
          M.decode_batch m [| s |] ~tokens:[| prompt.(t) |]
        in
        check_int "session length" (t + 1) (M.session_len s);
        check_column
          ~what:(Printf.sprintf "L=%d step %d" l t)
          (M.logits_column logits ~b:0)
          (M.decode_oracle m ~prompt:(Array.sub prompt 0 (t + 1)))
      done)
    [ 9; 16 ]

(* Ragged batch: sessions of different lengths advance together; each
   slot's logits must equal its own full-prefix oracle. *)
let test_decode_bitwise_ragged () =
  let m = M.create ~n_layers:2 ~vocab hp0 in
  let prng = Prng.create 7L in
  let prompts =
    [| Array.init 6 (fun _ -> Prng.int prng ~bound:vocab);
       Array.init 3 (fun _ -> Prng.int prng ~bound:vocab);
       Array.init 5 (fun _ -> Prng.int prng ~bound:vocab) |]
  in
  let sessions =
    Array.map (fun _ -> M.new_session m) prompts
  in
  (* stagger: advance slot 0 alone for 3 tokens, then the full batch *)
  for t = 0 to 2 do
    ignore
      (M.decode_batch m [| sessions.(0) |]
         ~tokens:[| prompts.(0).(t) |])
  done;
  for t = 0 to 2 do
    let logits =
      M.decode_batch m sessions
        ~tokens:
          [| prompts.(0).(3 + t); prompts.(1).(t); prompts.(2).(t) |]
    in
    Array.iteri
      (fun b prompt ->
        let len = M.session_len sessions.(b) in
        check_column
          ~what:(Printf.sprintf "ragged step %d slot %d" t b)
          (M.logits_column logits ~b)
          (M.decode_oracle m ~prompt:(Array.sub prompt 0 len)))
      prompts
  done

(* A batch that names one session twice is refused before anything runs:
   its two slots would write the same cache column. *)
let test_decode_rejects_duplicate_session () =
  let m = M.create ~n_layers:2 ~vocab hp0 in
  let a = M.new_session m and b = M.new_session m in
  ignore (M.decode_batch m [| a |] ~tokens:[| 1 |]);
  (match M.decode_batch m [| a; b; a |] ~tokens:[| 2; 3; 4 |] with
  | _ -> Alcotest.fail "duplicate session accepted"
  | exception Invalid_argument _ -> ());
  check_bool "refused batch committed nothing" true
    (M.session_len a = 1 && M.session_len b = 0)

(* An aborted step commits nothing: with the fallback off, a crash of a
   later streaming-attention launch (after earlier launches of the same
   step have written their K/V columns) propagates out of
   [decode_batch], every session keeps its length, and the following clean
   steps still match the recompute oracle bitwise. *)
let test_aborted_step_commits_nothing () =
  Guard.reset ();
  let m = M.create ~n_layers:2 ~vocab hp0 in
  let prng = Prng.create 31L in
  let prompts =
    Array.init 2 (fun _ -> Array.init 20 (fun _ -> Prng.int prng ~bound:vocab))
  in
  let sessions = Array.map (fun _ -> M.new_session m) prompts in
  let feed slots =
    M.decode_batch m
      (Array.map (fun b -> sessions.(b)) slots)
      ~tokens:
        (Array.map (fun b -> prompts.(b).(M.session_len sessions.(b))) slots)
  in
  for _ = 1 to 13 do
    ignore (feed [| 0 |])
  done;
  ignore (feed [| 0; 1 |]);
  ignore (feed [| 0; 1 |]);
  ignore (feed [| 0 |]);
  (* launch 0 runs and writes its column, launch 1 crashes; slot 0 sits at
     16 tokens, so the aborted steps also grow its caches *)
  let crash_second =
    {
      Execfault.on_kernel =
        (fun ~kernel ~instance ->
          if kernel = "flashattn.attend" && instance >= 1 then
            raise (Execfault.Injected_crash { kernel; instance; chunk = -1 }));
      on_chunk = (fun ~label:_ ~chunk:_ -> ());
      corrupt = (fun ~kernel:_ ~instance:_ _ -> ());
    }
  in
  List.iter
    (fun slots ->
      let before = Array.map M.session_len sessions in
      let raised =
        match
          Execfault.with_hooks crash_second (fun () ->
              Guard.with_fallback false (fun () ->
                  Fastmode.with_mode true (fun () -> feed slots)))
        with
        | _ -> false
        | exception Execfault.Injected_crash _ -> true
      in
      check_bool "aborted step raised" true raised;
      check_bool "aborted step left every session length" true
        (Array.map M.session_len sessions = before))
    [ [| 0 |]; [| 1; 0 |] ];
  Guard.reset ();
  List.iter
    (fun slots ->
      let logits = Fastmode.with_mode true (fun () -> feed slots) in
      Array.iteri
        (fun i b ->
          check_column
            ~what:(Printf.sprintf "after abort slot %d" b)
            (M.logits_column logits ~b:i)
            (M.decode_oracle m
               ~prompt:(Array.sub prompts.(b) 0 (M.session_len sessions.(b)))))
        slots)
    [ [| 0; 1 |]; [| 1 |]; [| 0; 1 |] ];
  Guard.reset ()

(* Random storage layouts: permuting every parameter's storage order must
   leave both paths identical (pure data movement). *)
let prop_decode_bitwise_layouts =
  QCheck.Test.make ~name:"kv-cached decode bitwise under permuted layouts"
    ~count:6
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prng = Prng.create (Int64.of_int (seed + 1)) in
      let m0 = M.create ~n_layers:2 ~vocab hp0 in
      let permute t = Dense.permute t (shuffle_list prng (Dense.axes t)) in
      let m =
        {
          m0 with
          M.embedding = permute m0.M.embedding;
          layer_params =
            Array.map
              (List.map (fun (n, p) -> (n, permute p)))
              m0.M.layer_params;
        }
      in
      let l = 5 in
      let prompt = Array.init l (fun _ -> Prng.int prng ~bound:vocab) in
      let s = M.new_session m in
      let ok = ref true in
      for t = 0 to l - 1 do
        let logits =
          M.decode_batch m [| s |] ~tokens:[| prompt.(t) |]
        in
        let got = M.logits_column logits ~b:0 in
        let want =
          M.decode_oracle m
            ~prompt:(Array.sub prompt 0 (t + 1))
        in
        Array.iteri
          (fun vi w -> if not (Float.equal got.(vi) w) then ok := false)
          want
      done;
      !ok)

(* Greedy self-feeding generation agrees between cached and oracle paths. *)
let test_generate_matches_oracle () =
  let m = M.create ~n_layers:2 ~vocab hp0 in
  let prompt = [| 3; 1; 4 |] in
  let s = M.new_session m in
  let cached = ref [] in
  let tok = ref prompt.(0) in
  let fed = ref [ prompt.(0) ] in
  for t = 0 to 7 do
    let logits = M.decode_batch m [| s |] ~tokens:[| !tok |] in
    let next =
      M.argmax (M.logits_column logits ~b:0)
    in
    let feed = if t + 1 < Array.length prompt then prompt.(t + 1) else next in
    if t + 1 >= Array.length prompt then cached := next :: !cached;
    tok := feed;
    if t < 7 then fed := feed :: !fed
  done;
  (* oracle: same teacher-forced/greedy schedule via full recompute *)
  let oracle = ref [] in
  let prefix = ref [ prompt.(0) ] in
  for t = 0 to 7 do
    let col =
      M.decode_oracle m
        ~prompt:(Array.of_list (List.rev !prefix))
    in
    let next = M.argmax col in
    let feed = if t + 1 < Array.length prompt then prompt.(t + 1) else next in
    if t + 1 >= Array.length prompt then oracle := next :: !oracle;
    if t < 7 then prefix := feed :: !prefix
  done;
  check_bool "greedy generations equal" true (!cached = !oracle)

(* ---------------- scheduler: correctness of served generations ------- *)

(* The scheduler's output tokens are exactly the oracle's greedy
   generation for each request, regardless of batching. *)
let test_scheduler_serves_oracle_generations () =
  let m = M.create ~n_layers:2 ~vocab hp0 in
  let clock = Serve.Clock.sim () in
  let sched =
    Serve.Scheduler.create
      ~policy:
        {
          Serve.Scheduler.default_policy with
          Serve.Scheduler.max_batch = 3;
          queue_capacity = 8;
        }
      ~clock m
  in
  let prompts = [ [| 3; 1; 4 |]; [| 2 |]; [| 5; 5 |] ] in
  let gens = [ 4; 6; 2 ] in
  List.iter2
    (fun prompt max_new ->
      match Serve.Scheduler.submit sched ~prompt ~max_new () with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "unexpected rejection")
    prompts gens;
  Serve.Scheduler.drain sched;
  let completions =
    List.filter_map
      (function Serve.Scheduler.Completed c -> Some c | _ -> None)
      (Serve.Scheduler.events sched)
  in
  check_int "all requests completed" 3 (List.length completions);
  List.iteri
    (fun i (prompt, max_new) ->
      let c =
        List.find (fun c -> c.Serve.Scheduler.c_id = i) completions
      in
      (* oracle greedy generation by full recompute *)
      let prefix = ref (Array.to_list prompt) in
      let expect =
        Array.init max_new (fun _ ->
            let col = M.decode_oracle m ~prompt:(Array.of_list !prefix) in
            let tok = M.argmax col in
            prefix := !prefix @ [ tok ];
            tok)
      in
      check_bool
        (Printf.sprintf "request %d tokens match oracle" i)
        true
        (c.Serve.Scheduler.c_tokens = expect))
    (List.combine prompts gens)

(* Once [Scheduler.create] has resolved the decode plans for every batch
   size its policy allows, decode steps run those plans and nothing else:
   no compile pass and not even a plan-cache lookup. *)
let test_decode_runs_only_plans () =
  let m = M.create ~n_layers:2 ~vocab hp0 in
  let stats0 = Compile.Compiled.cache_stats () in
  let _sched =
    Serve.Scheduler.create
      ~policy:
        { Serve.Scheduler.default_policy with Serve.Scheduler.max_batch = 3 }
      ~clock:(Serve.Clock.sim ()) m
  in
  let stats = Compile.Compiled.cache_stats () in
  check_int "create resolved two plans per batch size 1..3" 6
    (stats.hits + stats.misses - stats0.hits - stats0.misses);
  let passes = Compile.Compiled.pass_runs () in
  let sessions = Array.init 3 (fun _ -> M.new_session m) in
  let step slots =
    ignore
      (M.decode_batch m
         (Array.map (fun b -> sessions.(b)) slots)
         ~tokens:
           (Array.map
              (fun b -> (b + M.session_len sessions.(b)) mod vocab)
              slots))
  in
  (* ragged: the sessions reach lengths 6, 4 and 2 through batches of 1-3 *)
  List.iter step
    [ [| 0 |]; [| 0 |]; [| 0; 1 |]; [| 1 |]; [| 0; 1; 2 |]; [| 2; 0; 1 |];
      [| 0 |] ];
  check_bool "ragged lengths" true
    (Array.map M.session_len sessions = [| 6; 4; 2 |]);
  check_int "decode ran no compile pass" passes (Compile.Compiled.pass_runs ());
  check_bool "decode neither compiled nor looked up a plan" true
    (Compile.Compiled.cache_stats () = stats)

(* ---------------- scheduler: determinism under a fixed trace seed ---- *)

let run_trace ?(policy = Serve.Scheduler.default_policy) ?step_cost spec =
  let m = M.create ~n_layers:2 ~vocab:spec.Serve.Loadgen.vocab hp0 in
  let clock = Serve.Clock.sim () in
  let sched = Serve.Scheduler.create ~policy ?step_cost ~clock m in
  Serve.Loadgen.run sched clock (Serve.Loadgen.trace spec);
  sched

let counters sched =
  let mt = Serve.Scheduler.metrics sched in
  ( mt.Serve.Metrics.completed,
    mt.Serve.Metrics.rejected,
    mt.Serve.Metrics.shed,
    mt.Serve.Metrics.tokens_out,
    mt.Serve.Metrics.steps,
    Serve.Metrics.quantile mt.Serve.Metrics.latency 0.95 )

let test_scheduler_determinism () =
  let spec =
    {
      Serve.Loadgen.default_spec with
      Serve.Loadgen.n = 20;
      pattern = Serve.Loadgen.Poisson { rate = 400.0 };
      vocab;
      seed = 99L;
      max_new = 3;
    }
  in
  let a = run_trace spec and b = run_trace spec in
  check_bool "event streams identical" true
    (Serve.Scheduler.events a = Serve.Scheduler.events b);
  check_bool "counters identical" true (counters a = counters b);
  (* a different seed shifts arrival times, so latencies differ *)
  let c = run_trace { spec with Serve.Loadgen.seed = 100L } in
  check_bool "different seed changes the run" true
    (Serve.Scheduler.events a <> Serve.Scheduler.events c)

(* ---------------- deadlines: shedding and zero-shed at low load ------ *)

let test_low_load_no_sheds () =
  List.iter
    (fun (n, max_new) ->
      let spec =
        {
          Serve.Loadgen.default_spec with
          Serve.Loadgen.n;
          pattern = Serve.Loadgen.Uniform { gap = 0.01 };
          vocab;
          seed = 5L;
          max_new;
          deadline = Some 0.5;
        }
      in
      let sched = run_trace spec in
      let mt = Serve.Scheduler.metrics sched in
      check_int "no sheds at low load" 0 mt.Serve.Metrics.shed;
      check_int "no rejections at low load" 0 mt.Serve.Metrics.rejected;
      check_int "all completed" n mt.Serve.Metrics.completed;
      check_int "no late completions" 0 mt.Serve.Metrics.late)
    [ (10, 2); (12, 4) ]

let test_deadline_shedding_and_degradation () =
  (* service so slow every deadline blows: everything sheds, none
     completes, and the batch cap degrades *)
  let spec =
    {
      Serve.Loadgen.default_spec with
      Serve.Loadgen.n = 12;
      pattern = Serve.Loadgen.Bursty { burst = 4; period = 0.005 };
      vocab;
      seed = 3L;
      max_new = 4;
      deadline = Some 0.02;
    }
  in
  let sched =
    run_trace spec ~step_cost:(fun ~batch:_ ~max_len:_ -> 0.05)
      ~policy:
        {
          Serve.Scheduler.default_policy with
          Serve.Scheduler.max_batch = 4;
          queue_capacity = 16;
          degrade_after = 1;
        }
  in
  let mt = Serve.Scheduler.metrics sched in
  check_bool "sheds happened" true (mt.Serve.Metrics.shed > 0);
  check_bool "batch cap degraded" true (mt.Serve.Metrics.degraded > 0);
  check_bool "floor below configured max" true
    (mt.Serve.Metrics.batch_floor < 4);
  let sheds =
    List.filter
      (function
        | Serve.Scheduler.Rejected (_, Serve.Scheduler.Shed_deadline _) ->
            true
        | _ -> false)
      (Serve.Scheduler.events sched)
  in
  check_int "structured shed events match counter" mt.Serve.Metrics.shed
    (List.length sheds)

let test_admission_backpressure () =
  (* 10 simultaneous arrivals into a 2-deep queue: 8 refuse immediately *)
  let spec =
    {
      Serve.Loadgen.default_spec with
      Serve.Loadgen.n = 10;
      pattern = Serve.Loadgen.Bursty { burst = 10; period = 1.0 };
      vocab;
      seed = 8L;
      max_new = 1;
    }
  in
  let sched =
    run_trace spec
      ~policy:
        {
          Serve.Scheduler.default_policy with
          Serve.Scheduler.max_batch = 2;
          queue_capacity = 2;
        }
  in
  let mt = Serve.Scheduler.metrics sched in
  check_int "rejected overflow" 8 mt.Serve.Metrics.rejected;
  check_int "accepted complete" 2 mt.Serve.Metrics.completed;
  let full =
    List.filter
      (function
        | Serve.Scheduler.Rejected (_, Serve.Scheduler.Queue_full _) -> true
        | _ -> false)
      (Serve.Scheduler.events sched)
  in
  check_int "queue-full events" 8 (List.length full)

(* ---------------- continuous batching retirement --------------------- *)

let test_continuous_batching_retirement () =
  let m = M.create ~n_layers:2 ~vocab hp0 in
  let clock = Serve.Clock.sim () in
  let sched =
    Serve.Scheduler.create
      ~policy:
        {
          Serve.Scheduler.default_policy with
          Serve.Scheduler.max_batch = 3;
          queue_capacity = 8;
        }
      ~clock m
  in
  List.iter
    (fun (prompt, max_new) ->
      ignore (Serve.Scheduler.submit sched ~prompt ~max_new ()))
    [ ([| 1 |], 1); ([| 2 |], 3); ([| 3 |], 5) ];
  (* tick by hand and watch the batch shrink as sequences finish; the
     per-step participant count is the occupancy_sum delta across ticks *)
  let mt = Serve.Scheduler.metrics sched in
  let occupancies = ref [] in
  let prev_occ = ref 0 in
  let rec go () =
    match Serve.Scheduler.tick sched with
    | `Stepped ->
        let occ = mt.Serve.Metrics.occupancy_sum in
        occupancies := (occ - !prev_occ) :: !occupancies;
        prev_occ := occ;
        go ()
    | `Idle_until ts ->
        Serve.Clock.advance_to clock ts;
        go ()
    | `Drained -> ()
  in
  go ();
  check_int "all complete" 3 mt.Serve.Metrics.completed;
  check_int "tokens generated" (1 + 3 + 5) mt.Serve.Metrics.tokens_out;
  (* the final steps must have run with only the longest request left *)
  check_int "last step ran solo" 1 (List.hd !occupancies);
  check_bool "batch actually shrank" true
    (List.exists (fun n -> n = 3) !occupancies)

(* ---------------- metrics histograms --------------------------------- *)

let test_metrics_histogram () =
  let h = Serve.Metrics.hist () in
  for i = 1 to 100 do
    Serve.Metrics.observe h (float_of_int i /. 1000.0)
  done;
  check_int "count" 100 (Serve.Metrics.hist_count h);
  let p50 = Serve.Metrics.quantile h 0.50
  and p95 = Serve.Metrics.quantile h 0.95
  and p99 = Serve.Metrics.quantile h 0.99 in
  check_bool "p50 <= p95" true (p50 <= p95);
  check_bool "p95 <= p99" true (p95 <= p99);
  check_bool "p50 in the right ballpark" true (p50 >= 0.04 && p50 <= 0.07);
  check_bool "p99 caps at max" true (p99 <= 0.1 +. 1e-9)

let test_metrics_counts_match_run () =
  let spec =
    {
      Serve.Loadgen.default_spec with
      Serve.Loadgen.n = 8;
      pattern = Serve.Loadgen.Uniform { gap = 0.004 };
      vocab;
      seed = 21L;
      max_new = 2;
    }
  in
  let sched = run_trace spec in
  let mt = Serve.Scheduler.metrics sched in
  check_int "latency observations = completions" mt.Serve.Metrics.completed
    (Serve.Metrics.hist_count mt.Serve.Metrics.latency);
  check_int "wait observations = admissions" mt.Serve.Metrics.completed
    (Serve.Metrics.hist_count mt.Serve.Metrics.queue_wait);
  check_bool "snapshot is json-ish" true
    (let j = Serve.Metrics.to_json mt in
     String.length j > 2 && j.[0] = '{' && j.[String.length j - 1] = '}')

(* ---------------- bounded caches (satellite) -------------------------- *)

let test_einsum_cache_stats () =
  let s0 = Einsum.cache_stats () in
  let prng = Prng.create 17L in
  let a = Dense.rand prng [ ("x", 5); ("y", 4) ] ~lo:(-1.0) ~hi:1.0 in
  let b = Dense.rand prng [ ("y", 4); ("z", 3) ] ~lo:(-1.0) ~hi:1.0 in
  ignore (Einsum.eval "xy,yz->xz" [ a; b ]);
  let s1 = Einsum.cache_stats () in
  ignore (Einsum.eval "xy,yz->xz" [ a; b ]);
  let s2 = Einsum.cache_stats () in
  check_bool "first eval misses" true (s1.Einsum.misses > s0.Einsum.misses);
  check_bool "second eval hits" true (s2.Einsum.hits > s1.Einsum.hits);
  check_bool "entries bounded by capacity" true
    (s2.Einsum.entries <= s2.Einsum.capacity);
  (* one more distinct shape than the cache holds forces LRU evictions *)
  let c = Dense.rand prng [ ("y", 4); ("w", 2) ] ~lo:(-1.0) ~hi:1.0 in
  for x = 1 to s2.Einsum.capacity + 1 do
    let a = Dense.rand prng [ ("x", x); ("y", 4) ] ~lo:(-1.0) ~hi:1.0 in
    ignore (Einsum.eval "xy,yw->xw" [ a; c ])
  done;
  let s3 = Einsum.cache_stats () in
  check_bool "evictions past capacity" true
    (s3.Einsum.evictions > s2.Einsum.evictions);
  check_int "entries at capacity" s3.Einsum.capacity s3.Einsum.entries

let test_arena_bounded () =
  Arena.reset Arena.global;
  Arena.set_max_retained 100;
  Arena.with_scratch Arena.global 64 (fun _ -> ());
  Arena.with_scratch Arena.global 32 (fun _ -> ());
  let s = Arena.stats Arena.global in
  check_bool "retained under cap" true (s.Arena.retained_floats <= 100);
  (* a third class pushes past the cap: LRU class evicted *)
  Arena.with_scratch Arena.global 48 (fun _ -> ());
  let s2 = Arena.stats Arena.global in
  check_bool "still under cap" true (s2.Arena.retained_floats <= 100);
  check_bool "evicted a class" true (s2.Arena.evictions > 0);
  (* a buffer alone above the cap is never parked *)
  Arena.with_scratch Arena.global 1000 (fun _ -> ());
  let s3 = Arena.stats Arena.global in
  check_bool "oversized buffer not retained" true
    (s3.Arena.retained_floats <= 100);
  Arena.set_max_retained (1 lsl 22);
  Arena.reset Arena.global

let () =
  Alcotest.run "serve"
    [
      ( "decode",
        [
          Alcotest.test_case "bitwise equals oracle over 1..L steps" `Quick
            test_decode_bitwise_steps;
          Alcotest.test_case "ragged batch bitwise equals oracle" `Quick
            test_decode_bitwise_ragged;
          Alcotest.test_case "greedy generation matches oracle" `Quick
            test_generate_matches_oracle;
          Alcotest.test_case "a session twice in one batch is refused" `Quick
            test_decode_rejects_duplicate_session;
          Alcotest.test_case "aborted step commits nothing" `Quick
            test_aborted_step_commits_nothing;
          q prop_decode_bitwise_layouts;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "served tokens equal oracle generations" `Quick
            test_scheduler_serves_oracle_generations;
          Alcotest.test_case "deterministic under a fixed trace seed" `Quick
            test_scheduler_determinism;
          Alcotest.test_case "continuous batching retires finished" `Quick
            test_continuous_batching_retirement;
          Alcotest.test_case "decode runs only plans" `Quick
            test_decode_runs_only_plans;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "zero sheds at low load" `Quick
            test_low_load_no_sheds;
          Alcotest.test_case "shedding and degraded batch cap" `Quick
            test_deadline_shedding_and_degradation;
          Alcotest.test_case "queue-full backpressure" `Quick
            test_admission_backpressure;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram counts and quantiles" `Quick
            test_metrics_histogram;
          Alcotest.test_case "run counters match histograms" `Quick
            test_metrics_counts_match_run;
        ] );
      ( "caches",
        [
          Alcotest.test_case "einsum plan cache LRU and stats" `Quick
            test_einsum_cache_stats;
          Alcotest.test_case "arena retention bounded" `Quick
            test_arena_bounded;
        ] );
    ]

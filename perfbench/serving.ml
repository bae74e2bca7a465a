(* serve-decode: KV-cached decoding through [Serve.Scheduler].

   Phase 1 (open loop): Poisson arrivals at [rate] from one thread that
   interleaves submits with [Scheduler.tick]; each request is timed from
   the moment it was due, so a stall also charges the requests it delayed.
   Phase 2 (saturation): a fixed batch submitted at t=0 and drained, for
   throughput. Weights are read-only here, so the prepack registry only
   serves hits, and no compile pass runs after set-up.

   Every decode step runs for real and is timed on the wall clock, but the
   scheduler runs on its simulated clock, which each step advances by that
   step's measured time normalized to the nominal host speed ([Calib], from
   a kernel unit run after every [cal_every]-th step). On a real clock,
   queueing turns the shared host's speed swings into latency swings
   several times larger (latency p90 spread 0.84 over ten runs of the same
   code); here the queueing sees only the program's own speed. Idle gaps
   cost no wall time, so a run also serves several times more requests.
   The scheduler skips its per-step deadline guard on a simulated clock,
   so [scheduler.aborted_steps] reads 0. *)

module M = Transformer.Model
module S = Serve.Scheduler

(* Short requests at a rate that keeps the decode loop about a fifth busy,
   so queueing stays moderate and one run holds a few hundred requests. *)
let rate = 6.0
let prompt_lo = 8
let prompt_hi = 24
let max_new = 8
let deadline = 2.0
let open_share = 0.8
let saturation_requests = 240
let oracle_sample = 4
let vocab = 512
let n_layers = 2

let policy =
  { S.default_policy with S.max_batch = 8; max_queue_delay = 2e-3; queue_capacity = 64 }

let hp seed =
  {
    Transformer.Hparams.tiny with
    batch = 1;
    seq = 1;
    embed = 128;
    heads = 8;
    proj = 16;
    ff = 512;
    dropout_p = 0.0;
    seed;
  }

(* Steps are normalized by the median of the last [cal_ring] kernel units,
   one run after every [cal_every]-th step: one unit alone is too short to
   read the host's speed, and the ring still spans under a second. *)
let cal_ring = 32
let cal_every = 4

type submitted = { due : float; at : float; prompt : int array }
(* [at]: the clock just before [submit], the scheduler's arrival stamp *)

type phase = {
  sched : S.t;
  requests : (int, submitted) Hashtbl.t;
  step_raw : float array;  (** wall seconds of each untraced step *)
  step_norm : float array;  (** the same steps, normalized *)
  step_traced : float array;  (** wall seconds of traced ticks *)
  lag : float array;  (** submit time minus due time *)
  wall : float;  (** simulated seconds the phase took *)
  busy : float;  (** simulated seconds spent in steps *)
  units : float array;  (** every reference-kernel unit *)
}

(* Replay [arrivals] against a fresh scheduler: submit each one when due,
   tick in between, jump the clock over idle gaps, then drain. With
   [traced], every other tick and submit is recorded as a span. Without
   [calibrate] (warm-up), steps advance the clock by their raw time. *)
let replay ?(policy = policy) ?(calibrate = true) ~model ~traced
    (arrivals : Serve.Loadgen.arrival array) =
  let clock = Serve.Clock.sim () in
  let now () = Serve.Clock.now clock in
  let units = Stats.Samples.create () in
  let ring = Array.make cal_ring Calib.nominal_unit_s in
  if calibrate then Array.fill ring 0 cal_ring (Calib.sample ());
  let tick_t0 = ref 0.0 and last_step = ref (0.0, 0.0) and busy = ref 0.0 in
  let step_cost ~batch:_ ~max_len:_ =
    let raw = Stats.now () -. !tick_t0 in
    let norm =
      if calibrate then Calib.normalize ~per_unit:(Stats.median ring) raw else raw
    in
    last_step := (raw, norm);
    busy := !busy +. norm;
    norm
  in
  let sched = S.create ~policy ~step_cost ~clock model in
  let requests = Hashtbl.create 256 in
  let raw = Stats.Samples.create ()
  and norm = Stats.Samples.create ()
  and tr = Stats.Samples.create ()
  and lag = Stats.Samples.create () in
  let r = Span.recorder () in
  let n = Array.length arrivals in
  let next = ref 0 and ticks = ref 0 in
  let offering () = !next < n in
  let due i = arrivals.(i).Serve.Loadgen.at in
  let rec loop () =
    while offering () && due !next <= now () do
      let a = arrivals.(!next) in
      let d = due !next in
      let at = now () in
      Stats.Samples.add lag (at -. d);
      let submit () =
        S.submit sched ~prompt:a.prompt ~max_new:a.a_max_new
          ?deadline_in:a.a_deadline ()
      in
      (match
         if traced && !next mod 2 = 1 then
           Span.record r ~cls:"submit" "submit" (fun _ -> submit ())
         else submit ()
       with
      | Ok id -> Hashtbl.replace requests id { due = d; at; prompt = a.prompt }
      | Error _ -> ());
      incr next
    done;
    let traced_tick = traced && !ticks mod 2 = 1 in
    incr ticks;
    tick_t0 := Stats.now ();
    let outcome =
      if traced_tick then Span.record r ~cls:"tick" "tick" (fun _ -> S.tick sched)
      else S.tick sched
    in
    match outcome with
    | `Stepped ->
        let step_raw, step_norm = !last_step in
        if traced_tick then Stats.Samples.add tr (Span.duration (List.hd r.spans))
        else begin
          Stats.Samples.add raw step_raw;
          Stats.Samples.add norm step_norm
        end;
        if calibrate && !ticks mod cal_every = 0 then begin
          let u = Calib.measure 1 in
          ring.(Stats.Samples.length units mod cal_ring) <- u;
          Stats.Samples.add units u
        end;
        loop ()
    | `Idle_until ts ->
        (* at least a microsecond, as [Scheduler.drain] does, so a wake-up
           time already reached cannot stall the loop *)
        Serve.Clock.advance_to clock
          (Float.max (now () +. 1e-6)
             (if offering () then Float.min ts (due !next) else ts));
        loop ()
    | `Drained ->
        if offering () then begin
          Serve.Clock.advance_to clock (due !next);
          loop ()
        end
  in
  loop ();
  {
    sched;
    requests;
    step_raw = Stats.Samples.to_array raw;
    step_norm = Stats.Samples.to_array norm;
    step_traced = Stats.Samples.to_array tr;
    lag = Stats.Samples.to_array lag;
    wall = now ();
    busy = !busy;
    units = Stats.Samples.to_array units;
  }

let completions phase =
  List.filter_map
    (function S.Completed c -> Some c | S.Rejected _ -> None)
    (S.events phase.sched)

(* Greedy tokens recomputed by full-prefix recompute, one oracle forward
   per generated token. *)
let oracle_tokens model prompt n =
  let prefix = ref prompt in
  Array.init n (fun _ ->
      let tok = M.argmax (M.decode_oracle model ~prompt:!prefix) in
      prefix := Array.append !prefix [| tok |];
      tok)

let failures phase =
  let m = S.metrics phase.sched in
  Serve.Metrics.(m.rejected + m.shed + m.late)

(* Open-loop requests per wall second of [--seconds]: what a 2-vCPU cloud
   VM serves in that time. The count is fixed by [--seconds] alone, so a
   seed always replays the same requests and only the run's length
   follows the host's speed. *)
let served_per_s = 18.0

let run ~seed ~seconds ~trace =
  let open_seconds = open_share *. seconds in
  let spec =
    {
      Serve.Loadgen.n = max 1 (int_of_float (Float.round (served_per_s *. open_seconds)));
      pattern = Serve.Loadgen.Poisson { rate };
      prompt_lo;
      prompt_hi;
      max_new;
      deadline = Some deadline;
      vocab;
      seed;
    }
  in
  let model, setup, setup_raw =
    Harness.repeated_setup (fun ~first:_ ->
        let model = M.create ~n_layers ~vocab (hp seed) in
        (* warm-up: two short requests end to end *)
        let warm =
          Serve.Loadgen.trace
            { spec with n = 2; pattern = Uniform { gap = 0.0 }; prompt_lo = 4; prompt_hi = 4; max_new = 4; deadline = None }
        in
        ignore (replay ~calibrate:false ~model ~traced:false warm);
        model)
  in
  let arrivals = Serve.Loadgen.trace spec in
  let saturation =
    Serve.Loadgen.trace
      {
        spec with
        n = saturation_requests;
        pattern = Uniform { gap = 0.0 };
        deadline = None;
        seed = Int64.add seed 1L;
      }
  in
  let before = Harness.counters () in
  let gc0 = Harness.gc_mark () in
  (* [Scheduler.create] restarts the arena peak, so read it per phase *)
  let arena_peak () = (Arena.stats Arena.global).peak_floats in
  let open_wall = ref 0.0 in
  let (op, sat, arena), fallbacks =
    Guard.with_recording (fun () ->
        let t0 = Stats.now () in
        let op = replay ~model ~traced:trace arrivals in
        open_wall := Stats.now () -. t0;
        let op_arena = arena_peak () in
        let sat =
          replay
            ~policy:{ policy with queue_capacity = saturation_requests }
            ~model ~traced:false saturation
        in
        (op, sat, max op_arena (arena_peak ())))
  in
  let caches = Harness.cache_metrics before in
  let op_metrics = S.metrics op.sched and sat_metrics = S.metrics sat.sched in
  let gc = Harness.gc_metrics ~steps:(op_metrics.steps + sat_metrics.steps) gc0 in
  let done_ = completions op in
  let per_request f =
    Array.of_list
      (List.map (fun (c : S.completion) -> f c (Hashtbl.find op.requests c.c_id)) done_)
  in
  let latency_ms = per_request (fun c r -> (r.at +. c.c_latency -. r.due) *. 1e3) in
  let token_ms =
    per_request (fun c r ->
        (c.c_latency -. c.c_wait) *. 1e3
        /. float_of_int (Array.length r.prompt + Array.length c.c_tokens))
  in
  let wait_ms = per_request (fun c _ -> c.c_wait *. 1e3) in
  (* oracle: evenly spaced open-loop completions from a seeded offset *)
  let sample =
    let arr = Array.of_list done_ in
    let n = Array.length arr in
    let start = if n = 0 then 0 else Prng.int (Prng.of_key seed "oracle") ~bound:n in
    List.init (min oracle_sample n) (fun i ->
        arr.((start + (i * n / oracle_sample)) mod n))
  in
  let mismatches =
    List.filter
      (fun (c : S.completion) ->
        let r = Hashtbl.find op.requests c.c_id in
        oracle_tokens model r.prompt (Array.length c.c_tokens) <> c.c_tokens)
      sample
  in
  let attempted = Array.length arrivals + Array.length saturation in
  let failed = failures op + failures sat + List.length mismatches in
  let notes =
    [
      Printf.sprintf
        "serve-decode: %d layers, vocab %d, I=%d H=%d P=%d U=%d; open loop \
         Poisson %g req/s, %d requests (prompts %d-%d, %d generated, %g s \
         deadline) over %.1f simulated s in %.1f wall s, then %d requests at t=0 \
         drained; max_batch %d, %g ms queue delay"
        n_layers vocab model.hp.embed model.hp.heads model.hp.proj model.hp.ff
        rate (Array.length arrivals) prompt_lo prompt_hi max_new deadline op.wall
        !open_wall saturation_requests policy.max_batch
        (policy.max_queue_delay *. 1e3);
      Printf.sprintf "oracle greedy tokens vs Model.decode_oracle on %d sampled requests: %s"
        (List.length sample)
        (if mismatches = [] then "ok (bitwise)"
         else
           "MISMATCH on request "
           ^ String.concat ", "
               (List.map (fun (c : S.completion) -> string_of_int c.c_id) mismatches));
      Printf.sprintf "open loop: %d completed, %d rejected, %d shed, %d late"
        op_metrics.completed op_metrics.rejected op_metrics.shed op_metrics.late;
      Harness.wall_clock_note ~setup_raw "open-loop step" op.step_raw;
      Harness.unit_note (Array.append op.units sat.units);
    ]
  in
  let correct = mismatches = [] && sample <> [] in
  let metrics =
    if not trace then
      Stats.percentiles "step_ms" "ms" (Array.map (fun s -> s *. 1e3) op.step_norm)
      @ Stats.percentiles "latency_ms" "ms" latency_ms
      @ [
          Stats.metric "tokens_per_s" "1/s"
            (Stats.ratio (float_of_int sat_metrics.tokens_out) sat.wall);
          Stats.metric ~samples:(Array.length token_ms) "token_ms.p50" "ms"
            (Stats.median token_ms);
          setup;
          Stats.metric "peak_rss_mb" "MiB" (Host.peak_rss_mb ());
        ]
    else
      let pct name xs = Stats.percentiles name "ms" xs in
      pct "scheduler.step_ms" (Array.map (fun s -> s *. 1e3) op.step_traced)
      @ pct "scheduler.queue_wait_ms" wait_ms
      @ [
          Stats.metric "scheduler.batch_occupancy" "slots"
            (Serve.Metrics.mean_occupancy op_metrics);
          Stats.metric "scheduler.busy_share" "ratio" (Stats.ratio op.busy op.wall);
          Stats.metric "scheduler.shed" "count"
            (float_of_int (op_metrics.shed + sat_metrics.shed));
          Stats.metric "scheduler.rejected" "count"
            (float_of_int (op_metrics.rejected + sat_metrics.rejected));
          Stats.metric "scheduler.aborted_steps" "count"
            (float_of_int (op_metrics.aborted_steps + sat_metrics.aborted_steps));
          Stats.metric "scheduler.degraded" "count"
            (float_of_int (op_metrics.degraded + sat_metrics.degraded));
          Stats.metric ~samples:(Array.length op.lag) "loadgen.lag_ms.p90" "ms"
            (Stats.percentile op.lag 0.9 *. 1e3);
          Stats.metric "arena.peak_floats" "floats" (float_of_int arena);
          Stats.metric "guard.fallbacks" "count" (float_of_int (List.length fallbacks));
          Stats.metric "trace.overhead_pct" "%"
            (100.0
            *. (Stats.ratio (Stats.median op.step_traced) (Stats.median op.step_raw)
               -. 1.0));
        ]
      @ caches @ gc
  in
  { Harness.attempted; failed; correct; metrics; notes }

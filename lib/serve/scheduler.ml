(* Dynamic micro-batching scheduler with continuous batching.

   Requests enter a bounded admission queue; the scheduler forms decode
   batches under a [max_batch] / [max_queue_delay] policy: a cold batch
   waits until either enough requests queue up to fill it or the oldest
   request has waited out the delay budget, while a running batch absorbs
   newcomers the moment a slot frees (continuous batching). Each step
   advances every active session one token through the KV-cached
   [Model.decode_batch]; finished sequences retire from the batch
   immediately, returning their slot.

   Backpressure and degradation: a full queue refuses admission with a
   structured rejection; requests whose deadline lapses — queued or
   in-flight — are shed; in real-clock mode the decode step itself runs
   under [Pool.with_deadline] of the tightest remaining margin, so a
   stuck kernel aborts without corrupting any session (K/V appends commit
   only after a full successful step). Repeated deadline misses halve the
   batch cap (multiplicative decrease); sustained clean steps grow it
   back one slot at a time (additive increase). *)

module Model = Transformer.Model

type policy = {
  max_batch : int;
  max_queue_delay : float;  (* s a cold batch may wait to fill *)
  queue_capacity : int;
  degrade_after : int;  (* consecutive miss-steps before halving *)
  recover_after : int;  (* consecutive clean steps before growing *)
}

let default_policy =
  {
    max_batch = 4;
    max_queue_delay = 2e-3;
    queue_capacity = 64;
    degrade_after = 2;
    recover_after = 8;
  }

type request = {
  id : int;
  prompt : int array;
  max_new : int;
  deadline : float option;  (* absolute, on the scheduler's clock *)
  arrival : float;
}

type rejection =
  | Queue_full of { depth : int; capacity : int }
  | Shed_deadline of { waited : float }

type completion = {
  c_id : int;
  c_tokens : int array;  (* generated tokens, in order *)
  c_latency : float;
  c_wait : float;
  c_late : bool;
}

type event = Completed of completion | Rejected of int * rejection

type slot = {
  req : request;
  sess : Model.session;
  mutable fed : int;  (* prompt tokens consumed *)
  mutable next_tok : int;
  mutable emitted : int list;  (* newest first *)
  mutable first_step : float option;
}

type t = {
  model : Model.t;
  clock : Clock.t;
  policy : policy;
  step_cost : batch:int -> max_len:int -> float;
  metrics : Metrics.t;
  queue : request Queue.t;
  mutable active : slot list;  (* admission order *)
  mutable cur_max_batch : int;
  mutable miss_streak : int;
  mutable clean_streak : int;
  mutable events : event list;  (* newest first *)
  mutable next_id : int;
}

(* Default simulated service-time model: a fixed dispatch overhead plus a
   per-(slot x cached-token) term — time proportional to bytes moved,
   which is the paper's whole point. Only consulted in sim mode. *)
let default_step_cost ~batch ~max_len =
  1e-4 +. (2e-6 *. float_of_int (batch * max_len))

let create ?(policy = default_policy) ?(step_cost = default_step_cost) ~clock
    model =
  if policy.max_batch < 1 then invalid_arg "Scheduler.create: max_batch >= 1";
  if model.Model.hp.Transformer.Hparams.dropout_p <> 0.0 then
    invalid_arg "Scheduler.create: serving model must have dropout_p = 0";
  (* every batch a step can form has its plans before the first step *)
  for batch = 1 to policy.max_batch do
    ignore (Model.decode_plans model ~batch)
  done;
  (* bracket this serving run's scratch working set: the arena peak the
     metrics report starts at this scheduler's creation *)
  Arena.reset_peak Arena.global;
  {
    model;
    clock;
    policy;
    step_cost;
    metrics = Metrics.create ();
    queue = Queue.create ~capacity:policy.queue_capacity;
    active = [];
    cur_max_batch = policy.max_batch;
    miss_streak = 0;
    clean_streak = 0;
    events = [];
    next_id = 0;
  }

let metrics t = t.metrics
let events t = List.rev t.events
let queue_depth t = Queue.length t.queue
let active_count t = List.length t.active
let current_max_batch t = t.cur_max_batch

let idle t = t.active = [] && Queue.is_empty t.queue

let push_event t e = t.events <- e :: t.events

let reject t req why =
  (match why with
  | Queue_full _ -> t.metrics.Metrics.rejected <- t.metrics.Metrics.rejected + 1
  | Shed_deadline _ -> t.metrics.Metrics.shed <- t.metrics.Metrics.shed + 1);
  push_event t (Rejected (req.id, why))

(* [submit t ~prompt ~max_new ?deadline_in ()] offers a request at the
   clock's current time; [Error] is the immediate admission refusal. *)
let submit t ~prompt ~max_new ?deadline_in () =
  if Array.length prompt = 0 then
    invalid_arg "Scheduler.submit: empty prompt";
  if max_new < 1 then invalid_arg "Scheduler.submit: max_new >= 1";
  let now = Clock.now t.clock in
  Metrics.mark t.metrics now;
  let id = t.next_id in
  t.next_id <- id + 1;
  let req =
    {
      id;
      prompt;
      max_new;
      deadline = Option.map (fun d -> now +. d) deadline_in;
      arrival = now;
    }
  in
  if Queue.push t.queue req then begin
    let depth = Queue.length t.queue in
    if depth > t.metrics.Metrics.max_queue_depth then
      t.metrics.Metrics.max_queue_depth <- depth;
    Ok id
  end
  else begin
    let why =
      Queue_full
        { depth = Queue.length t.queue; capacity = Queue.capacity t.queue }
    in
    reject t req why;
    Error why
  end

let expired now req =
  match req.deadline with Some d -> now > d | None -> false

(* Deadline sheds: drop queued requests already past deadline, and retire
   in-flight slots whose deadline lapsed (their sessions are abandoned —
   continuous batching frees the slot this step). Returns whether
   anything was shed. *)
let shed_expired t now =
  let gone = Queue.drain_if (expired now) t.queue in
  List.iter
    (fun r -> reject t r (Shed_deadline { waited = now -. r.arrival }))
    gone;
  let dead, alive = List.partition (fun s -> expired now s.req) t.active in
  t.active <- alive;
  List.iter
    (fun s ->
      reject t s.req (Shed_deadline { waited = now -. s.req.arrival }))
    dead;
  gone <> [] || dead <> []

let activate t req =
  let sess = Model.new_session t.model in
  t.active <-
    t.active
    @ [
        {
          req;
          sess;
          fed = 0;
          next_tok = req.prompt.(0);
          emitted = [];
          first_step = None;
        };
      ]

(* Admission: a running batch absorbs queued requests whenever a slot is
   free; a cold batch starts only once it can fill up or the oldest
   request has waited out the delay budget. *)
let admit t now =
  let room () = List.length t.active < t.cur_max_batch in
  let should_start =
    t.active <> []
    || Queue.length t.queue >= t.cur_max_batch
    ||
    match Queue.peek t.queue with
    | Some r -> now -. r.arrival >= t.policy.max_queue_delay
    | None -> false
  in
  if should_start then
    while room () && not (Queue.is_empty t.queue) do
      match Queue.pop t.queue with
      | Some r -> activate t r
      | None -> ()
    done

let tightest_margin t now =
  List.fold_left
    (fun acc s ->
      match s.req.deadline with
      | Some d -> Some (match acc with None -> d -. now | Some m -> Float.min m (d -. now))
      | None -> acc)
    None t.active

let finish t now s =
  let late = expired now s.req in
  if late then t.metrics.Metrics.late <- t.metrics.Metrics.late + 1;
  t.metrics.Metrics.completed <- t.metrics.Metrics.completed + 1;
  Metrics.observe t.metrics.Metrics.latency (now -. s.req.arrival);
  push_event t
    (Completed
       {
         c_id = s.req.id;
         c_tokens = Array.of_list (List.rev s.emitted);
         c_latency = now -. s.req.arrival;
         c_wait =
           (match s.first_step with
           | Some f -> f -. s.req.arrival
           | None -> 0.0);
         c_late = late;
       })

(* Degradation bookkeeping after each step (or aborted step): repeated
   deadline misses halve the batch cap, sustained clean steps grow it
   back. *)
let degrade t ~missed =
  if missed then begin
    t.clean_streak <- 0;
    t.miss_streak <- t.miss_streak + 1;
    if t.miss_streak >= t.policy.degrade_after && t.cur_max_batch > 1 then begin
      t.cur_max_batch <- max 1 (t.cur_max_batch / 2);
      t.miss_streak <- 0;
      t.metrics.Metrics.degraded <- t.metrics.Metrics.degraded + 1
    end
  end
  else begin
    t.miss_streak <- 0;
    t.clean_streak <- t.clean_streak + 1;
    if t.clean_streak >= t.policy.recover_after then begin
      t.clean_streak <- 0;
      if t.cur_max_batch < t.policy.max_batch then
        t.cur_max_batch <- t.cur_max_batch + 1
    end
  end;
  if t.cur_max_batch < t.metrics.Metrics.batch_floor then
    t.metrics.Metrics.batch_floor <- t.cur_max_batch

(* One decode step over the whole active batch. *)
let step t =
  let slots = Array.of_list t.active in
  let n = Array.length slots in
  let now0 = Clock.now t.clock in
  Array.iter
    (fun s ->
      if s.first_step = None then begin
        s.first_step <- Some now0;
        Metrics.observe t.metrics.Metrics.queue_wait (now0 -. s.req.arrival)
      end)
    slots;
  let sessions = Array.map (fun s -> s.sess) slots in
  let tokens = Array.map (fun s -> s.next_tok) slots in
  let max_len =
    Array.fold_left
      (fun acc s -> max acc (Model.session_len s.sess + 1))
      1 slots
  in
  (* Real mode: the step itself runs under the tightest per-request
     deadline via the resilience runtime — a blown budget aborts the step
     before any K/V column commits. *)
  let run () = Model.decode_batch t.model sessions ~tokens in
  let outcome =
    if Clock.is_sim t.clock then Ok (run ())
    else
      match tightest_margin t now0 with
      | Some margin when margin <= 0.0 ->
          Error `Expired_before_step
      | Some margin -> (
          try Ok (Pool.with_deadline ~scope:"serve.step" margin run)
          with Pool.Deadline_exceeded _ -> Error `Step_aborted)
      | None -> Ok (run ())
  in
  (if Clock.is_sim t.clock then
     Clock.advance t.clock (t.step_cost ~batch:n ~max_len));
  let now1 = Clock.now t.clock in
  Metrics.mark t.metrics now1;
  match outcome with
  | Error why ->
      if why = `Step_aborted then
        t.metrics.Metrics.aborted_steps <- t.metrics.Metrics.aborted_steps + 1;
      ignore (shed_expired t now1);
      degrade t ~missed:true
  | Ok logits ->
      t.metrics.Metrics.steps <- t.metrics.Metrics.steps + 1;
      t.metrics.Metrics.occupancy_sum <- t.metrics.Metrics.occupancy_sum + n;
      t.metrics.Metrics.queue_depth_sum <-
        t.metrics.Metrics.queue_depth_sum + Queue.length t.queue;
      Array.iteri
        (fun b s ->
          s.fed <- s.fed + 1;
          if s.fed < Array.length s.req.prompt then
            s.next_tok <- s.req.prompt.(s.fed)
          else begin
            let tok = Model.argmax (Model.logits_column logits ~b) in
            s.emitted <- tok :: s.emitted;
            s.next_tok <- tok;
            t.metrics.Metrics.tokens_out <- t.metrics.Metrics.tokens_out + 1
          end)
        slots;
      (* continuous batching: retire finished sequences right away *)
      let done_, live =
        List.partition
          (fun s -> List.length s.emitted >= s.req.max_new)
          t.active
      in
      t.active <- live;
      List.iter (finish t now1) done_;
      let missed = shed_expired t now1 in
      degrade t ~missed

(* One scheduling turn. [`Idle_until ts] asks the driver to move the
   clock (nothing can happen before [ts]); [`Drained] means no queued or
   active work remains. *)
let tick t =
  let now = Clock.now t.clock in
  ignore (shed_expired t now);
  admit t now;
  if t.active <> [] then begin
    step t;
    `Stepped
  end
  else
    match Queue.peek t.queue with
    | None -> `Drained
    | Some oldest -> `Idle_until (oldest.arrival +. t.policy.max_queue_delay)

(* Run to completion (no more arrivals will come). *)
let drain t =
  let rec go () =
    match tick t with
    | `Stepped -> go ()
    | `Idle_until ts ->
        Clock.advance_to t.clock (Float.max ts (Clock.now t.clock +. 1e-6));
        go ()
    | `Drained -> ()
  in
  go ()

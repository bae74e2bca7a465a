(* Serving metrics: latency/wait histograms with quantile estimates,
   throughput and occupancy counters, and a JSON snapshot that also folds
   in the einsum plan-cache and arena retention counters (the two caches
   the serving workload newly bounds). Times are whatever the scheduler's
   clock says, so simulated runs report simulated latencies. *)

(* Log-spaced histogram: 60 buckets from 10 us to 100 s plus an overflow
   bucket. Quantiles report the bucket's upper bound (the usual
   conservative estimate), so p50 <= p95 <= p99 by construction. *)
type hist = {
  bounds : float array;
  counts : int array;  (* length = Array.length bounds + 1 *)
  mutable total : int;
  mutable sum : float;
  mutable vmax : float;
}

let hist () =
  let n = 60 in
  let lo = 1e-5 and hi = 100.0 in
  let ratio = (hi /. lo) ** (1.0 /. float_of_int (n - 1)) in
  {
    bounds = Array.init n (fun i -> lo *. (ratio ** float_of_int i));
    counts = Array.make (n + 1) 0;
    total = 0;
    sum = 0.0;
    vmax = 0.0;
  }

let observe h v =
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do
    incr i
  done;
  h.counts.(!i) <- h.counts.(!i) + 1;
  h.total <- h.total + 1;
  h.sum <- h.sum +. v;
  if v > h.vmax then h.vmax <- v

let hist_count h = h.total
let hist_mean h = if h.total = 0 then 0.0 else h.sum /. float_of_int h.total

let quantile h q =
  if h.total = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int h.total)) in
    let rank = max 1 (min h.total rank) in
    let acc = ref 0 and ans = ref h.vmax in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if !acc >= rank then begin
             (if i < Array.length h.bounds then ans := min h.bounds.(i) h.vmax);
             raise Exit
           end)
         h.counts
     with Exit -> ());
    !ans
  end

type t = {
  latency : hist;  (* submit -> completion *)
  queue_wait : hist;  (* submit -> first decode step *)
  mutable completed : int;
  mutable rejected : int;  (* admission refusals (queue full) *)
  mutable shed : int;  (* deadline sheds, queued or active *)
  mutable late : int;  (* completed after their deadline *)
  mutable tokens_out : int;
  mutable steps : int;
  mutable aborted_steps : int;  (* real-mode deadline aborts mid-step *)
  mutable occupancy_sum : int;
  mutable queue_depth_sum : int;
  mutable max_queue_depth : int;
  mutable degraded : int;  (* batch-shrink transitions *)
  mutable batch_floor : int;  (* smallest batch cap reached *)
  mutable started : float option;
  mutable finished : float;
}

let create () =
  {
    latency = hist ();
    queue_wait = hist ();
    completed = 0;
    rejected = 0;
    shed = 0;
    late = 0;
    tokens_out = 0;
    steps = 0;
    aborted_steps = 0;
    occupancy_sum = 0;
    queue_depth_sum = 0;
    max_queue_depth = 0;
    degraded = 0;
    batch_floor = max_int;
    started = None;
    finished = 0.0;
  }

let mark t now =
  (match t.started with None -> t.started <- Some now | Some _ -> ());
  if now > t.finished then t.finished <- now

let span t =
  match t.started with None -> 0.0 | Some s -> Float.max 0.0 (t.finished -. s)

let tokens_per_sec t =
  let s = span t in
  if s <= 0.0 then 0.0 else float_of_int t.tokens_out /. s

let mean_occupancy t =
  if t.steps = 0 then 0.0
  else float_of_int t.occupancy_sum /. float_of_int t.steps

let mean_queue_depth t =
  if t.steps = 0 then 0.0
  else float_of_int t.queue_depth_sum /. float_of_int t.steps

(* Hand-rolled single-line JSON. *)
let json_f x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else Printf.sprintf "%.6g" x

let to_json t =
  let e = Einsum.cache_stats () in
  let a = Arena.stats Arena.global in
  String.concat ""
    [
      "{";
      Printf.sprintf "\"completed\":%d,\"rejected\":%d,\"shed\":%d,\"late\":%d,"
        t.completed t.rejected t.shed t.late;
      Printf.sprintf "\"tokens_out\":%d,\"steps\":%d,\"aborted_steps\":%d,"
        t.tokens_out t.steps t.aborted_steps;
      Printf.sprintf "\"span_s\":%s,\"tokens_per_sec\":%s," (json_f (span t))
        (json_f (tokens_per_sec t));
      Printf.sprintf "\"mean_occupancy\":%s,\"mean_queue_depth\":%s,"
        (json_f (mean_occupancy t))
        (json_f (mean_queue_depth t));
      Printf.sprintf "\"max_queue_depth\":%d,\"degraded\":%d,"
        t.max_queue_depth t.degraded;
      Printf.sprintf
        "\"latency\":{\"count\":%d,\"mean_s\":%s,\"p50_s\":%s,\"p95_s\":%s,\"p99_s\":%s,\"max_s\":%s},"
        (hist_count t.latency)
        (json_f (hist_mean t.latency))
        (json_f (quantile t.latency 0.50))
        (json_f (quantile t.latency 0.95))
        (json_f (quantile t.latency 0.99))
        (json_f t.latency.vmax);
      Printf.sprintf
        "\"queue_wait\":{\"count\":%d,\"mean_s\":%s,\"p50_s\":%s,\"p95_s\":%s,\"p99_s\":%s},"
        (hist_count t.queue_wait)
        (json_f (hist_mean t.queue_wait))
        (json_f (quantile t.queue_wait 0.50))
        (json_f (quantile t.queue_wait 0.95))
        (json_f (quantile t.queue_wait 0.99));
      Printf.sprintf
        "\"einsum_plan_cache\":{\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"entries\":%d,\"capacity\":%d},"
        e.Einsum.hits e.Einsum.misses e.Einsum.evictions e.Einsum.entries
        e.Einsum.capacity;
      Printf.sprintf
        "\"arena\":{\"retained_floats\":%d,\"classes\":%d,\"evictions\":%d,\"capacity_floats\":%d,\"live_floats\":%d,\"peak_floats\":%d},"
        a.Arena.retained_floats a.Arena.classes a.Arena.evictions
        a.Arena.capacity_floats a.Arena.live_floats a.Arena.peak_floats;
      (let p = Einsum.prepack_stats () in
       Printf.sprintf
         "\"prepack\":{\"registered\":%d,\"images\":%d,\"floats\":%d,\"hits\":%d,\"builds\":%d}"
         p.Einsum.pp_registered p.Einsum.pp_images p.Einsum.pp_floats
         p.Einsum.pp_hits p.Einsum.pp_builds);
      "}";
    ]

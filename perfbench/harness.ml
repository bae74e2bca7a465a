(* Plumbing shared by the workloads: the result of one run, repeated
   set-up, and the closed timed loop. *)

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;  (** every oracle and integrity check passed *)
  metrics : Stats.metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

(* Set-up runs [setup_reps] times, each from cleared caches and each
   followed by a reference-kernel sample that normalizes it (see [Calib]);
   the metric is the median, so one slow set-up does not move it. The
   first repetition counts from process start and is told so through
   [~first]. Returns the raw seconds of each repetition too. *)
let setup_reps = 5

let process_start = Stats.now ()

let clear_caches () =
  Compile.Compiled.clear_cache ();
  Einsum.clear_caches ();
  Einsum.clear_prepacked ()

let repeated_setup f =
  let runs =
    Array.init setup_reps (fun i ->
        clear_caches ();
        let t0 = if i = 0 then process_start else Stats.now () in
        let v = f ~first:(i = 0) in
        let t = Stats.now () -. t0 in
        (v, t, Calib.normalize ~per_unit:(Calib.sample ()) t))
  in
  let v, _, _ = runs.(setup_reps - 1) in
  ( v,
    Stats.metric ~samples:setup_reps "setup_s" "s"
      (Stats.median (Array.map (fun (_, _, n) -> n) runs)),
    Array.map (fun (_, t, _) -> t) runs )

(* OCaml runtime counters over a timed phase. *)
type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_metrics ~steps before =
  let after = gc_mark () in
  [
    Stats.metric "gc.minor_words_per_step" "words"
      (Stats.ratio (after.minor_words -. before.minor_words) (float_of_int steps));
    Stats.metric "gc.major_collections" "count"
      (float_of_int (after.major_collections - before.major_collections));
  ]

(* Run [step i] back to back for [seconds] (closed loop, one caller),
   each step followed by an untimed reference-kernel sample, and return
   the wall time of each completed step and that time normalized ([Calib])
   by the mean of the samples just before and just after it, which
   brackets the host's speed during the step better than either alone.
   Steps are split by whether they were traced ([traced i]); attempted /
   failed counts come with them. A step that raises counts as failed and
   is not timed. *)
type loop = {
  plain : float array;
  plain_norm : float array;
  traced : float array;
  traced_norm : float array;
  units : float array;  (** the reference-kernel unit beside every step *)
  attempted : int;
  failed : int;
}

let timed_loop ~seconds ~traced step =
  let plain = Stats.Samples.create () and tr = Stats.Samples.create () in
  let plain_norm = Stats.Samples.create () and tr_norm = Stats.Samples.create () in
  let units = Stats.Samples.create () in
  let attempted = ref 0 and failed = ref 0 in
  let before = ref (Calib.sample ()) in
  let t_end = Stats.now () +. seconds in
  while Stats.now () < t_end do
    let i = !attempted in
    incr attempted;
    let t0 = Stats.now () in
    match step i with
    | () ->
        let t = Stats.now () -. t0 in
        let after = Calib.sample () in
        Stats.Samples.add units after;
        let raw, norm = if traced i then (tr, tr_norm) else (plain, plain_norm) in
        Stats.Samples.add raw t;
        Stats.Samples.add norm
          (Calib.normalize ~per_unit:((!before +. after) /. 2.0) t);
        before := after
    | exception e ->
        incr failed;
        Printf.eprintf "perfbench: step %d raised %s\n%!" i (Printexc.to_string e)
  done;
  {
    plain = Stats.Samples.to_array plain;
    plain_norm = Stats.Samples.to_array plain_norm;
    traced = Stats.Samples.to_array tr;
    traced_norm = Stats.Samples.to_array tr_norm;
    units = Stats.Samples.to_array units;
    attempted = !attempted;
    failed = !failed;
  }

(* The wall-clock figures behind normalized ones, printed for a reader. *)
let wall_clock_note ~setup_raw what xs =
  Printf.sprintf
    "wall clock, not normalized: %s p50 %.3f ms, p90 %.3f ms; set-up median %.3f s"
    what
    (Stats.percentile xs 0.5 *. 1e3)
    (Stats.percentile xs 0.9 *. 1e3)
    (Stats.median setup_raw)

let unit_note units =
  Printf.sprintf "reference kernel unit: p50 %.4f ms over %d samples; nominal %.4f ms"
    (Stats.median units *. 1e3) (Array.length units) (Calib.nominal_unit_s *. 1e3)

(* A traced step whose span self times do not add up to its wall time,
   beyond clock rounding, has overlapping or escaping spans. *)
let tree_error i ~wall ~discrepancy =
  if discrepancy <= 1e-6 *. Float.max 1.0 (wall *. 1e3) then None
  else
    Some
      (Printf.sprintf "step %d: span self times miss the wall time by %.3g s" i
         discrepancy)

(* Cache counters over the timed phase. *)
type counters = {
  pp : Einsum.prepack_stats;
  plans : Einsum.cache_stats;
  passes : int;
}

let counters () =
  {
    pp = Einsum.prepack_stats ();
    plans = Einsum.cache_stats ();
    passes = Compile.Compiled.pass_runs ();
  }

let cache_metrics before =
  let after = counters () in
  let pp_hits = after.pp.pp_hits - before.pp.pp_hits
  and pp_builds = after.pp.pp_builds - before.pp.pp_builds
  and hits = after.plans.hits - before.plans.hits
  and misses = after.plans.misses - before.plans.misses in
  [
    Stats.metric "einsum.prepack_hit_ratio" "ratio"
      (Stats.ratio (float_of_int pp_hits) (float_of_int (pp_hits + pp_builds)));
    Stats.metric "einsum.plan_cache_hit_ratio" "ratio"
      (Stats.ratio (float_of_int hits) (float_of_int (hits + misses)));
    Stats.metric "compile.passes_after_setup" "count"
      (float_of_int (after.passes - before.passes));
  ]

(* Element-wise agreement of two tensors of the same shape, in any
   layouts. *)
let agree ok a b =
  Dense.volume a = Dense.volume b
  &&
  match Dense.align b a with
  | b -> Array.for_all2 ok (Dense.unsafe_data a) (Dense.unsafe_data b)
  | exception (Invalid_argument _ | Not_found) -> false

let bitwise_equal =
  agree (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))

(* The 1e-9 relative envelope [Compile.Compiled ~verify] allows for the
   dataflow cone of a streaming attention-backward window. *)
let ulps_close =
  agree (fun x y -> Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x))

(* The repository benchmark.

     perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Runs one workload in this process on a single pool domain, checks its
   outputs against the in-tree oracles, and prints a metadata line, the
   metrics by name with their units, and as the last line one JSON object
   {correct, attempted, failed, metrics}. With --trace 0 the result holds
   the end-to-end metrics (tracing off); with --trace 1 it holds the
   per-layer set, derived from spans the benchmark records around its
   calls into each layer. Exits 1 when an oracle or trace-integrity check
   fails. *)

module H = Transformer.Hparams

(* The end-to-end metrics bounded in BENCHMARK.json and reported in the
   result object. Times and rates are normalized to a nominal host speed
   (see [Calib]); the wall-clock figures are printed beside them. *)
let end_to_end =
  [
    "step_ms.p50";
    "step_ms.p90";
    "latency_ms.p50";
    "latency_ms.p90";
    "tokens_per_s";
    "token_ms.p50";
    "setup_s";
    "peak_rss_mb";
  ]

let per_layer =
  [
    ("einsum.busy_ms", "ms");
    ("einsum.gflops", "GFLOP/s");
    ("einsum.calls", "count");
    ("einsum.prepack_hit_ratio", "ratio");
    ("einsum.plan_cache_hit_ratio", "ratio");
    ("flashattn.busy_ms", "ms");
    ("flashattn.gflops", "GFLOP/s");
    ("flashattn.calls", "count");
    ("fastpath.busy_ms", "ms");
    ("fastpath.gbps", "GB/s");
    ("fastpath.calls", "count");
    ("fwd.busy_ms", "ms");
    ("bwd.busy_ms", "ms");
    ("execute.overhead_ms", "ms");
    ("update.busy_ms", "ms");
    ("model.forward_ms", "ms");
    ("model.backward_ms", "ms");
    ("model.adam_ms", "ms");
    ("compile.cold_ms", "ms");
    ("compile.hit_ms", "ms");
    ("compile.ops_after", "count");
    ("compile.passes_after_setup", "count");
  ]
  @ List.map (fun p -> ("compile.pass." ^ p ^ "_ms", "ms")) Train.pass_names
  @ [
      ("memplan.peak_floats", "floats");
      ("memplan.slots", "count");
      ("memplan.inplace", "count");
      ("memplan.aliased", "count");
      ("arena.peak_floats", "floats");
      ("scheduler.step_ms.p50", "ms");
      ("scheduler.step_ms.p90", "ms");
      ("scheduler.queue_wait_ms.p50", "ms");
      ("scheduler.queue_wait_ms.p90", "ms");
      ("scheduler.batch_occupancy", "slots");
      ("scheduler.busy_share", "ratio");
      ("scheduler.shed", "count");
      ("scheduler.rejected", "count");
      ("scheduler.aborted_steps", "count");
      ("scheduler.degraded", "count");
      ("loadgen.lag_ms.p90", "ms");
      ("guard.fallbacks", "count");
      ("gc.minor_words_per_step", "words");
      ("gc.major_collections", "count");
      ("trace.overhead_pct", "%");
    ]

(* BERT encoder layer at the repository's CPU bench hparams: contractions
   dominate op time. *)
let gemm_hp =
  {
    H.tiny with
    batch = 2;
    seq = 64;
    embed = 128;
    heads = 8;
    proj = 16;
    ff = 512;
    dropout_p = 0.1;
  }

(* One long sequence through a single narrow head: the streaming attention
   windows dominate op time. *)
let attn_hp =
  { gemm_hp with batch = 1; seq = 512; embed = 32; heads = 1; proj = 32; ff = 128 }

let bert_hp = { gemm_hp with batch = 1 }

let workloads =
  [
    ("encoder-gemm", Train.run_encoder ~name:"encoder-gemm" ~hp:gemm_hp);
    ("encoder-attn", Train.run_encoder ~name:"encoder-attn" ~hp:attn_hp);
    ("bert-train", Train.run_bert ~hp:bert_hp);
    ("serve-decode", Serving.run);
  ]

(* The per-layer emphasis each workload was chosen for, checked on the
   traced run and reported (not gated: a later change may legitimately
   shift it). *)
let emphasis name (metrics : Stats.metric list) =
  let get n =
    match List.find_opt (fun (m : Stats.metric) -> m.name = n) metrics with
    | Some m -> m.value
    | None -> Float.nan
  in
  let e = get "einsum.busy_ms"
  and a = get "flashattn.busy_ms"
  and f = get "fastpath.busy_ms" in
  let share x = 100.0 *. Stats.ratio x (e +. a +. f) in
  let verdict ok = if ok then "confirmed" else "NOT confirmed" in
  match name with
  | "encoder-gemm" ->
      Some
        (Printf.sprintf
           "emphasis: contractions dominate op self time (einsum %.1f%%, \
            flashattn %.1f%%, fastpath %.1f%%): %s"
           (share e) (share a) (share f)
           (verdict (e > a && e > f)))
  | "encoder-attn" ->
      Some
        (Printf.sprintf
           "emphasis: attention windows dominate op self time (flashattn %.1f%%, \
            einsum %.1f%%, fastpath %.1f%%): %s"
           (share a) (share e) (share f)
           (verdict (a > e && a > f)))
  | "serve-decode" ->
      let passes = get "compile.passes_after_setup" in
      Some
        (Printf.sprintf
           "emphasis: no compile pass runs after set-up (%.0f passes): %s"
           passes (verdict (passes = 0.0)))
  | _ -> None

let usage () =
  Printf.eprintf
    "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n"
    (String.concat "|" (List.map fst workloads));
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := Int64.of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when List.mem_assoc w workloads && secs > 0.0 ->
      (w, s, secs, t)
  | _ -> usage ()

let () =
  let name, seed, seconds, trace = parse_args () in
  let run = List.assoc name workloads in
  let (o : Harness.outcome) =
    Pool.with_domains 1 (fun () ->
        Printf.printf
          "# meta {\"workload\": %s, \"seed\": %Ld, \"seconds\": %s, \"trace\": %b, \
           \"nproc\": %d, \"pool_domains\": %d, \"ocaml\": %s, \"commit\": %s}\n%!"
          (Stats.json_string name) seed (Stats.number seconds) trace
          (Domain.recommended_domain_count ())
          (Pool.num_domains ())
          (Stats.json_string Sys.ocaml_version)
          (Stats.json_string (Host.git_commit ()));
        run ~seed ~seconds ~trace)
  in
  (* A layer the benchmark cannot see on this workload (the model path
     hides per-op spans; training has no scheduler) reads 0 and is listed. *)
  let expected =
    if trace then List.map fst per_layer else end_to_end
  in
  let reported = List.map (fun (m : Stats.metric) -> m.name) o.metrics in
  let unexpected = List.filter (fun n -> not (List.mem n expected)) reported
  and missing = List.filter (fun n -> not (List.mem n reported)) expected in
  if unexpected <> [] || List.length (List.sort_uniq compare reported) <> List.length reported
     || (missing <> [] && not trace)
  then begin
    Printf.eprintf "perfbench: %s reported [%s]; unexpected [%s], missing [%s]\n" name
      (String.concat " " reported) (String.concat " " unexpected)
      (String.concat " " missing);
    exit 3
  end;
  let metrics =
    List.map
      (fun n ->
        match List.find_opt (fun (m : Stats.metric) -> m.name = n) o.metrics with
        | Some m -> m
        | None -> Stats.metric n (List.assoc n per_layer) 0.0)
      expected
  in
  if missing <> [] then
    Printf.printf "# not observed on %s (reported as 0): %s\n" name
      (String.concat " " missing);
  List.iter (fun l -> Printf.printf "# %s\n" l) o.notes;
  if trace then Option.iter (Printf.printf "# %s\n") (emphasis name o.metrics);
  (* error_rate is 0 in a healthy run, so it is printed here and carried by
     attempted/failed in the result rather than listed as a bounded metric *)
  Printf.printf "%-36s %14s %-8s (%d of %d failed)\n" "error_rate"
    (Stats.number (Stats.ratio (float_of_int o.failed) (float_of_int o.attempted)))
    "ratio" o.failed o.attempted;
  List.iter
    (fun (m : Stats.metric) ->
      Printf.printf "%-36s %14s %-8s%s\n" m.name (Stats.number m.value) m.unit_
        (if m.samples > 0 then Printf.sprintf " (n=%d)" m.samples else ""))
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (m : Stats.metric) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Stats.json_string m.name)
              (Stats.number m.value) (Stats.json_string m.unit_))
          metrics));
  if not o.correct then exit 1

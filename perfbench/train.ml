(* The three training workloads.

   encoder-gemm / encoder-attn: one BERT encoder layer per step, closed
   loop with one caller. Each step looks the plan up
   ([Compile.Compiled.compile] under [Regime.current ()], a cache hit),
   executes forward+backward, then applies an in-place SGD update and
   drops the stale weight packs ([Compiled.invalidate_weights]).

   bert-train: a 2-layer model trained with [Model.forward],
   [cross_entropy], [backward] and [adam_step] on fresh seeded batches. *)

module H = Transformer.Hparams
module E = Transformer.Encoder
module M = Transformer.Model
module C = Compile.Compiled

let lr = 1e-4

(* ------------------------------------------------------------------ *)
(* Op classification for the traced run                                *)
(* ------------------------------------------------------------------ *)

(* Each staged op is charged to one layer: a recognized attention window
   to tensor.flashattn, any other contraction to tensor.einsum, and the
   element-wise / normalization kernels to ops.fastpath. Bytes are
   computed, not measured: 8 B per element of every container the op
   reads or writes. *)
type op_info = { cls : string; flop : int; bytes : int; backward : bool }

let classify (plan : C.plan) =
  let sites =
    List.map (fun (s : Substation.Fusion.attn_site) -> s.site_op) plan.attn_sites
  in
  let table = Hashtbl.create 64 in
  List.iter
    (fun (op : Ops.Op.t) ->
      let cls =
        if List.mem op.name sites then "flashattn"
        else match op.kind with Ops.Op.Gemm _ -> "einsum" | _ -> "fastpath"
      in
      let containers = List.sort_uniq compare (op.reads @ op.writes) in
      let bytes =
        List.fold_left
          (fun acc c ->
            acc
            + 8
              * List.fold_left
                  (fun v (_, d) -> v * d)
                  1
                  (Ops.Program.container_dims plan.program c))
          0 containers
      in
      Hashtbl.replace table op.name
        { cls; flop = op.flop; bytes; backward = op.backward })
    plan.program.ops;
  table

(* ------------------------------------------------------------------ *)
(* Encoder-layer training step                                         *)
(* ------------------------------------------------------------------ *)

type encoder = {
  program : Ops.Program.t;
  params : (string * Dense.t) list;
  inputs : (string * Dense.t) list;
  weights : Dense.t list;
}

let device = Gpu.Device.v100

let compile_layer st =
  C.compile ~device ~name_table:E.kernel_names ~params:E.param_names
    (Compile.Regime.current ()) st.program

let init_encoder hp =
  let prng = Prng.create hp.H.seed in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  {
    program = E.program hp;
    params;
    inputs = ("x", x) :: ("d_y", d_y) :: params;
    weights =
      List.filter_map
        (fun (n, t) -> if n.[0] = 'w' then Some t else None)
        params;
  }

(* In-place SGD on every parameter, then drop the packs the update made
   stale. *)
let sgd_update st env =
  List.iter
    (fun (name, p) ->
      let g = Ops.Op.lookup env (E.grad name) in
      let g =
        Dense.unsafe_data
          (if Layout.equal (Dense.layout g) (Dense.layout p) then g
           else Dense.align g p)
      in
      let pd = Dense.unsafe_data p in
      Array.iteri (fun i v -> pd.(i) <- v -. (lr *. g.(i))) pd)
    st.params;
  C.invalidate_weights st.weights

let encoder_step st = sgd_update st (C.execute (compile_layer st) st.inputs)

(* Containers downstream of a streaming attention-backward window in the
   source schedule: held to the 1e-9 envelope, everything else bitwise
   (the contract [Compiled ~verify] checks). *)
let attention_backward_cone (plan : C.plan) =
  let cone = Hashtbl.create 16 in
  List.iter
    (fun (s : Substation.Fusion.attn_site) ->
      if s.site_kind = `Bwd then
        List.iter (fun c -> Hashtbl.replace cone c ()) s.site_writes)
    plan.attn_sites;
  List.iter
    (fun (op : Ops.Op.t) ->
      if List.exists (Hashtbl.mem cone) op.reads then
        List.iter (fun c -> Hashtbl.replace cone c ()) op.writes)
    plan.source.ops;
  cone

(* One step checked against the naive interpreter on the source program
   with the same inputs. Returns the containers that disagree. *)
let checked_encoder_step st =
  let plan = compile_layer st in
  let env = C.execute plan st.inputs in
  let reference =
    Fastmode.with_naive (fun () -> Ops.Program.run plan.source st.inputs)
  in
  let cone = attention_backward_cone plan in
  let bad =
    Hashtbl.fold
      (fun c got acc ->
        match Hashtbl.find_opt reference c with
        | None -> c :: acc
        | Some want ->
            let ok =
              if Hashtbl.mem cone c then Harness.ulps_close want got
              else Harness.bitwise_equal want got
            in
            if ok then acc else c :: acc)
      env []
  in
  sgd_update st env;
  List.sort compare bad

let warmup_steps = 2

(* Per-step aggregates of one traced step (seconds). *)
type traced_step = {
  wall : float;
  busy : (string, float) Hashtbl.t;  (* op class -> summed self time *)
  fwd : float;
  bwd : float;
  compile_s : float;
  overhead : float;  (* execute self time *)
  update_s : float;
  flop_seen : int;
  discrepancy : float;
}

(* [per_op] accumulates each op's self times across traced steps. *)
let traced_encoder_step st table per_op =
  let r = Span.recorder () in
  Span.record r ~cls:"step" "step" (fun root ->
      let plan =
        Span.record r ~parent:root ~cls:"compile" "compile" (fun _ ->
            compile_layer st)
      in
      let env =
        Span.record r ~parent:root ~cls:"execute" "execute" (fun ex ->
            C.execute plan st.inputs ~wrap_op:(fun op body ->
                let i = Hashtbl.find table op.Ops.Op.name in
                Span.record r ~parent:ex ~cls:i.cls ~flop:i.flop
                  ~backward:i.backward op.name (fun _ -> body ())))
      in
      Span.record r ~parent:root ~cls:"update" "update" (fun _ ->
          sgd_update st env));
  let spans = r.spans in
  let busy = Hashtbl.create 4 in
  let fwd = ref 0.0 and bwd = ref 0.0 and flop_seen = ref 0 in
  let get cls =
    match List.find_opt (fun (s : Span.t) -> s.cls = cls) spans with
    | Some s -> s
    | None -> failwith ("missing span " ^ cls)
  in
  List.iter
    (fun (s : Span.t) ->
      match s.cls with
      | "einsum" | "flashattn" | "fastpath" ->
          let self = Span.self_time spans s in
          Hashtbl.replace busy s.cls
            (self +. Option.value (Hashtbl.find_opt busy s.cls) ~default:0.0);
          if s.backward then bwd := !bwd +. self else fwd := !fwd +. self;
          flop_seen := !flop_seen + s.flop;
          Stats.Samples.add
            (match Hashtbl.find_opt per_op s.name with
            | Some x -> x
            | None ->
                let x = Stats.Samples.create () in
                Hashtbl.replace per_op s.name x;
                x)
            self
      | _ -> ())
    spans;
  let root = get "step" in
  {
    wall = Span.duration root;
    busy;
    fwd = !fwd;
    bwd = !bwd;
    compile_s = Span.duration (get "compile");
    overhead = Span.self_time spans (get "execute");
    update_s = Span.duration (get "update");
    flop_seen = !flop_seen;
    discrepancy = Span.tree_discrepancy spans root;
  }

let ms = 1e3

(* The spans, written out: one line per staged op, slowest first, with the
   median self time over traced steps and the rate it implies. *)
let op_profile table per_op =
  Hashtbl.fold
    (fun name samples acc ->
      let i = Hashtbl.find table name in
      (Stats.median (Stats.Samples.to_array samples), name, i) :: acc)
    per_op []
  |> List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a)
  |> List.map (fun (t, name, i) ->
         Printf.sprintf "op %-34s %-9s %s %9.3f ms %7.3f GFLOP/s %7.3f GB/s"
           name i.cls
           (if i.backward then "bwd" else "fwd")
           (t *. ms)
           (Stats.ratio (float_of_int i.flop) t /. 1e9)
           (Stats.ratio (float_of_int i.bytes) t /. 1e9))

let pass_names =
  [
    "canonicalize";
    "dce-cse";
    "attention-window";
    "fusion";
    "tuned-binding";
    "memory-plan";
    "prepack";
  ]

let compile_metrics ~cold_s (plan : C.plan) =
  let pass name =
    let v =
      match
        List.find_opt (fun (s : Compile.Pass.stat) -> s.st_pass = name) plan.trace
      with
      | Some s -> s.st_elapsed *. ms
      | None -> 0.0
    in
    Stats.metric ("compile.pass." ^ name ^ "_ms") "ms" v
  in
  Stats.metric "compile.cold_ms" "ms" (cold_s *. ms)
  :: Stats.metric "compile.ops_after" "count"
       (float_of_int (List.length plan.program.ops))
  :: List.map pass pass_names

(* Known defect of the pass trace, left for the trace-integrity work: rows
   after memory-plan fall back to the allocate-everything peak. Printed
   beside the memplan metrics, which come from [Ops.Memplan.stats]. *)
let pass_trace_note (plan : C.plan) =
  let peak name =
    List.find_map
      (fun (s : Compile.Pass.stat) ->
        if s.st_pass = name then Some s.st_peak_floats else None)
      plan.trace
  in
  match (peak "memory-plan", peak "prepack") with
  | Some planned, Some after ->
      [
        Printf.sprintf
          "note: the plan trace reports peak %d floats at memory-plan but %d at \
           prepack (known trace defect); memplan.peak_floats comes from \
           Ops.Memplan.stats instead"
          planned after;
      ]
  | _ -> []

let memplan_metrics (plan : C.plan) =
  match plan.memplan with
  | None -> []
  | Some mp ->
      let s = Ops.Memplan.stats mp in
      let count name v = Stats.metric name "count" (float_of_int v) in
      [
        Stats.metric "memplan.peak_floats" "floats" (float_of_int s.plan_peak_floats);
        count "memplan.slots" s.slots;
        count "memplan.inplace" s.inplace;
        count "memplan.aliased" s.aliased;
      ]

(* End-to-end metrics of a training run, from host-speed-normalized step
   times ([Calib]). A closed loop with one caller waits for each step, so a
   request's latency is the step time. *)
let train_e2e ~tokens_per_step ~setup (loop : Harness.loop) =
  let steps_ms = Array.map (fun s -> s *. ms) loop.plain_norm in
  let per_token = Array.map (fun s -> s /. float_of_int tokens_per_step) steps_ms in
  Stats.percentiles "step_ms" "ms" steps_ms
  @ Stats.percentiles "latency_ms" "ms" steps_ms
  @ [
      Stats.metric "tokens_per_s" "1/s"
        (Stats.ratio
           (float_of_int (tokens_per_step * Array.length loop.plain_norm))
           (Stats.sum loop.plain_norm));
      Stats.metric ~samples:(Array.length per_token) "token_ms.p50" "ms"
        (Stats.median per_token);
      setup;
    ]

(* Traced runs alternate untraced and traced steps, so the overhead is
   measured against steps taken under the same conditions. *)
let is_traced ~trace i = trace && i mod 2 = 1

let trace_overhead (loop : Harness.loop) =
  Stats.metric "trace.overhead_pct" "%"
    (100.0
    *. (Stats.ratio (Stats.median loop.traced_norm) (Stats.median loop.plain_norm)
       -. 1.0))

let encoder_notes name hp =
  [
    Printf.sprintf
      "%s: B=%d L=%d I=%d H=%d P=%d U=%d dropout=%g, closed loop, 1 caller" name
      hp.H.batch hp.H.seq hp.H.embed hp.H.heads hp.H.proj hp.H.ff hp.H.dropout_p;
  ]

let run_encoder ~name ~hp ~seed ~seconds ~trace =
  let hp = { hp with H.seed = seed } in
  let cold = ref None in
  let st, setup, setup_raw =
    Harness.repeated_setup (fun ~first ->
        let st = init_encoder hp in
        let t0 = Stats.now () in
        let plan = compile_layer st in
        if first then cold := Some (Stats.now () -. t0, plan);
        for _ = 1 to warmup_steps do
          encoder_step st
        done;
        st)
  in
  let plan = compile_layer st in
  let table = classify plan in
  let per_op = Hashtbl.create 32 in
  let staged_flop =
    List.fold_left (fun acc (op : Ops.Op.t) -> acc + op.flop) 0 plan.program.ops
  in
  let bad_first = checked_encoder_step st in
  let traced_steps = ref [] in
  let integrity = ref [] in
  let before = Harness.counters () in
  Arena.reset_peak Arena.global;
  let gc0 = Harness.gc_mark () in
  let (loop : Harness.loop), fallbacks =
    Guard.with_recording (fun () ->
        Harness.timed_loop ~seconds ~traced:(is_traced ~trace) (fun i ->
            if is_traced ~trace i then begin
              let s = traced_encoder_step st table per_op in
              if s.flop_seen <> staged_flop then
                integrity :=
                  Printf.sprintf "step %d: op spans carry %d flop, staged program %d"
                    i s.flop_seen staged_flop
                  :: !integrity;
              Option.iter
                (fun e -> integrity := e :: !integrity)
                (Harness.tree_error i ~wall:s.wall ~discrepancy:s.discrepancy);
              traced_steps := s :: !traced_steps
            end
            else encoder_step st))
  in
  let steps = loop.attempted - loop.failed in
  let gc = Harness.gc_metrics ~steps gc0 in
  let caches = Harness.cache_metrics before in
  let arena = (Arena.stats Arena.global).peak_floats in
  let bad_last = checked_encoder_step st in
  let oracle_failed =
    (if bad_first = [] then 0 else 1) + if bad_last = [] then 0 else 1
  in
  let attempted = loop.attempted + 2 and failed = loop.failed + oracle_failed in
  let notes =
    encoder_notes name hp
    @ [
        Harness.wall_clock_note ~setup_raw "step" loop.plain;
        Harness.unit_note loop.units;
      ]
    @ List.map
        (fun (which, bad) ->
          Printf.sprintf "oracle %s step vs naive interpreter: %s" which
            (if bad = [] then "ok (bitwise outside the attention-backward cone)"
             else "MISMATCH in " ^ String.concat ", " bad))
        [ ("first", bad_first); ("last", bad_last) ]
    @ List.rev_map (fun s -> "trace integrity FAILED: " ^ s) !integrity
    @ op_profile table per_op
    @
    match !cold with
    | Some (_, cold_plan) when trace -> pass_trace_note cold_plan
    | _ -> []
  in
  let correct = oracle_failed = 0 && !integrity = [] in
  let metrics =
    if not trace then
      train_e2e ~tokens_per_step:(hp.H.batch * hp.H.seq) ~setup loop
      @ [ Stats.metric "peak_rss_mb" "MiB" (Host.peak_rss_mb ()) ]
    else begin
      let ts = Array.of_list !traced_steps in
      let med f = Stats.median (Array.map f ts) *. ms in
      (* per step: median summed self time and op count of the class;
         rates: every traced call's flop or bytes over its self time *)
      let layer cls =
        let busy, flop, bytes, calls =
          Hashtbl.fold
            (fun name samples (t, f, b, n) ->
              let i = Hashtbl.find table name in
              if i.cls <> cls then (t, f, b, n)
              else
                let k = float_of_int (Stats.Samples.length samples) in
                ( t +. Stats.sum (Stats.Samples.to_array samples),
                  f +. (k *. float_of_int i.flop),
                  b +. (k *. float_of_int i.bytes),
                  n + 1 ))
            per_op (0.0, 0.0, 0.0, 0)
        in
        ( med (fun s -> Option.value (Hashtbl.find_opt s.busy cls) ~default:0.0),
          float_of_int calls,
          Stats.ratio flop busy /. 1e9,
          Stats.ratio bytes busy /. 1e9 )
      in
      let e_ms, e_calls, e_gf, _ = layer "einsum"
      and a_ms, a_calls, a_gf, _ = layer "flashattn"
      and f_ms, f_calls, _, f_gb = layer "fastpath" in
      let cold_s, cold_plan = Option.get !cold in
      [
        Stats.metric "einsum.busy_ms" "ms" e_ms;
        Stats.metric "einsum.gflops" "GFLOP/s" e_gf;
        Stats.metric "einsum.calls" "count" e_calls;
        Stats.metric "flashattn.busy_ms" "ms" a_ms;
        Stats.metric "flashattn.gflops" "GFLOP/s" a_gf;
        Stats.metric "flashattn.calls" "count" a_calls;
        Stats.metric "fastpath.busy_ms" "ms" f_ms;
        Stats.metric "fastpath.gbps" "GB/s" f_gb;
        Stats.metric "fastpath.calls" "count" f_calls;
        Stats.metric "fwd.busy_ms" "ms" (med (fun s -> s.fwd));
        Stats.metric "bwd.busy_ms" "ms" (med (fun s -> s.bwd));
        Stats.metric "execute.overhead_ms" "ms" (med (fun s -> s.overhead));
        Stats.metric "update.busy_ms" "ms" (med (fun s -> s.update_s));
        Stats.metric ~samples:(Array.length ts) "compile.hit_ms" "ms"
          (med (fun s -> s.compile_s));
        Stats.metric "arena.peak_floats" "floats" (float_of_int arena);
        Stats.metric "guard.fallbacks" "count" (float_of_int (List.length fallbacks));
        trace_overhead loop;
      ]
      @ compile_metrics ~cold_s cold_plan
      @ memplan_metrics plan @ caches @ gc
    end
  in
  { Harness.attempted; failed; correct; metrics; notes }

(* ------------------------------------------------------------------ *)
(* Whole-model training                                                *)
(* ------------------------------------------------------------------ *)

type bert = {
  model : M.t;
  adam : M.adam_state;
  prng : Prng.t;
  batch : int;
  seq : int;
}

let vocab = 512
let n_layers = 2

let next_batch st =
  let draw () =
    Transformer.Training.random_batch st.prng ~vocab ~batch:st.batch ~seq:st.seq
  in
  let tokens = draw () in
  (tokens, draw ())

(* One step; with [recorder], each model call is recorded as a span under
   the given root. *)
let bert_step ?recorder st =
  let tokens, targets = next_batch st in
  let span name f =
    match recorder with
    | Some (r, root) -> Span.record r ~parent:root ~cls:name name (fun _ -> f ())
    | None -> f ()
  in
  let cache = span "forward" (fun () -> M.forward st.model ~tokens) in
  let loss, grads =
    span "backward" (fun () ->
        let loss, d_logits = M.cross_entropy ~logits:cache.M.logits ~targets in
        (loss, M.backward st.model cache ~d_logits))
  in
  span "adam" (fun () -> M.adam_step st.model st.adam grads ~lr);
  if not (Float.is_finite loss) then failwith "non-finite loss"

(* Per-phase seconds of one traced step, and its span-tree discrepancy. *)
let traced_bert_step st =
  let r = Span.recorder () in
  Span.record r ~cls:"step" "step" (fun root -> bert_step ~recorder:(r, root) st);
  let spans = r.spans in
  let dur cls =
    match List.find_opt (fun (s : Span.t) -> s.cls = cls) spans with
    | Some s -> Span.duration s
    | None -> failwith ("missing span " ^ cls)
  in
  let root = List.find (fun (s : Span.t) -> s.cls = "step") spans in
  ( [| dur "forward"; dur "backward"; dur "adam" |],
    Span.duration root,
    Span.tree_discrepancy spans root )

(* First step: the loss of the fast forward against a naive-mode forward
   of the same batch and weights, then the step completes as usual. *)
let checked_bert_step st =
  let tokens, targets = next_batch st in
  let loss_of cache = fst (M.cross_entropy ~logits:cache.M.logits ~targets) in
  let want = loss_of (Fastmode.with_naive (fun () -> M.forward st.model ~tokens)) in
  let cache = M.forward st.model ~tokens in
  let got, d_logits = M.cross_entropy ~logits:cache.M.logits ~targets in
  let grads = M.backward st.model cache ~d_logits in
  M.adam_step st.model st.adam grads ~lr;
  (want, got)

let run_bert ~hp ~seed ~seconds ~trace =
  let hp = { hp with H.seed = seed } in
  let cold = ref 0.0 in
  let st, setup, setup_raw =
    Harness.repeated_setup (fun ~first ->
        let model = M.create ~n_layers ~vocab hp in
        let st =
          {
            model;
            adam = M.adam_init model;
            prng = Prng.of_key seed "batches";
            batch = hp.H.batch;
            seq = hp.H.seq;
          }
        in
        let t0 = Stats.now () in
        M.precompile model ~batch:st.batch ~seq:st.seq;
        if first then cold := Stats.now () -. t0;
        for _ = 1 to warmup_steps do
          bert_step st
        done;
        st)
  in
  let want, got = checked_bert_step st in
  let loss_ok = Int64.bits_of_float want = Int64.bits_of_float got in
  let before = Harness.counters () in
  Arena.reset_peak Arena.global;
  let gc0 = Harness.gc_mark () in
  let phases = ref [] and integrity = ref [] in
  let (loop : Harness.loop), fallbacks =
    Guard.with_recording (fun () ->
        Harness.timed_loop ~seconds ~traced:(is_traced ~trace) (fun i ->
            if is_traced ~trace i then begin
              let p, wall, discrepancy = traced_bert_step st in
              Option.iter
                (fun e -> integrity := e :: !integrity)
                (Harness.tree_error i ~wall ~discrepancy);
              phases := p :: !phases
            end
            else bert_step st))
  in
  let steps = loop.attempted - loop.failed in
  let gc = Harness.gc_metrics ~steps gc0 in
  let caches = Harness.cache_metrics before in
  let arena = (Arena.stats Arena.global).peak_floats in
  let attempted = loop.attempted + 1
  and failed = loop.failed + if loss_ok then 0 else 1 in
  let notes =
    [
      Printf.sprintf
        "bert-train: %d layers, vocab %d, B=%d L=%d I=%d H=%d P=%d U=%d \
         dropout=%g, Adam, closed loop, 1 caller"
        n_layers vocab hp.H.batch hp.H.seq hp.H.embed hp.H.heads hp.H.proj hp.H.ff
        hp.H.dropout_p;
      Printf.sprintf "oracle first-step loss vs naive-mode forward: %s (%.17g vs %.17g)"
        (if loss_ok then "ok (bitwise)" else "MISMATCH") got want;
      Harness.wall_clock_note ~setup_raw "step" loop.plain;
      Harness.unit_note loop.units;
    ]
    @ List.rev_map (fun s -> "trace integrity FAILED: " ^ s) !integrity
  in
  let correct = loss_ok && !integrity = [] in
  let metrics =
    if not trace then
      train_e2e ~tokens_per_step:(hp.H.batch * hp.H.seq) ~setup loop
      @ [ Stats.metric "peak_rss_mb" "MiB" (Host.peak_rss_mb ()) ]
    else begin
      let ps = Array.of_list !phases in
      let med k = Stats.median (Array.map (fun p -> p.(k)) ps) *. ms in
      [
        Stats.metric "model.forward_ms" "ms" (med 0);
        Stats.metric "model.backward_ms" "ms" (med 1);
        Stats.metric "model.adam_ms" "ms" (med 2);
        Stats.metric "arena.peak_floats" "floats" (float_of_int arena);
        Stats.metric "guard.fallbacks" "count" (float_of_int (List.length fallbacks));
        trace_overhead loop;
      ]
      @ (Stats.metric "compile.cold_ms" "ms" (!cold *. ms) :: caches)
      @ gc
    end
  in
  { Harness.attempted; failed; correct; metrics; notes }

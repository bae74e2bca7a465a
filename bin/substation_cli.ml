(* substation — command-line driver for the data-movement optimization
   recipe: dataflow analysis, fusion, configuration tuning, global
   selection, and regeneration of the paper's tables and figures. *)

open Cmdliner

(* ---------------- shared options ---------------- *)

(* The single hparams-parsing term every subcommand shares; the name
   table lives in [Hparams.of_name], not here. *)
let hparams_conv =
  let parse s =
    match Transformer.Hparams.of_name s with
    | Some hp -> Ok hp
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown configuration %S (expected one of %s)" s
                (String.concat ", " Transformer.Hparams.known_names)))
  in
  let print ppf hp = Transformer.Hparams.pp ppf hp in
  Arg.conv (parse, print)

let hp_arg =
  Arg.(
    value
    & opt hparams_conv Transformer.Hparams.bert_large
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:
          (Printf.sprintf "Model configuration: one of %s (default bert-large)."
             (String.concat ", " Transformer.Hparams.known_names)))

let device_conv =
  let parse = function
    | "v100" -> Ok Gpu.Device.v100
    | "a100" -> Ok Gpu.Device.a100
    | s -> Error (`Msg ("unknown device: " ^ s))
  in
  Arg.conv (parse, Gpu.Device.pp)

let device_arg =
  Arg.(
    value
    & opt device_conv Gpu.Device.v100
    & info [ "d"; "device" ] ~docv:"DEVICE"
        ~doc:"Device model: v100 (default) or a100.")

let mha_arg =
  Arg.(
    value & flag
    & info [ "mha" ] ~doc:"Operate on the standalone multi-head attention block.")

let workload_of_mha mha =
  if mha then Frameworks.Executor.Mha_block else Frameworks.Executor.Encoder_layer

let program_of ~mha hp =
  if mha then Transformer.Mha.program hp else Transformer.Encoder.program hp

let table_of ~mha =
  if mha then Transformer.Mha.kernel_names else Transformer.Encoder.kernel_names

(* ---------------- commands ---------------- *)

let analyze hp _device mha =
  let program = program_of ~mha hp in
  let graph = Ops.Program.graph program in
  Format.printf "Configuration: %a@.@." Transformer.Hparams.pp hp;
  List.iter
    (fun r -> Format.printf "%a@." Sdfg.Analysis.pp_report r)
    (Sdfg.Analysis.analyze graph);
  Format.printf "@.Operator class shares (of %.3f binary Gflop):@."
    (float_of_int (Sdfg.Analysis.total_flop graph) /. 1073741824.0);
  List.iter
    (fun (s : Sdfg.Analysis.class_share) ->
      Format.printf "  %-22s %6.2f%% of flop in %d operators@."
        (Sdfg.Opclass.to_string s.cls)
        (100.0 *. s.flop_share) s.op_count)
    (Sdfg.Analysis.class_shares graph)

let fuse hp _device mha flash_attn =
  let program = program_of ~mha hp in
  let groups = Substation.Fusion.groups ~name_table:(table_of ~mha) ~attention:flash_attn program in
  List.iter
    (fun (g : Substation.Fusion.group) ->
      Format.printf "%-12s <- %s@." g.fused.Ops.Op.name
        (String.concat " + "
           (List.map (fun (o : Ops.Op.t) -> o.Ops.Op.name) g.members)))
    groups;
  let unfused, fused = Substation.Fusion.movement_saved ~bytes_per_elem:2 program in
  Format.printf "@.data movement: %.1f MB unfused -> %.1f MB fused (%.2f%% saved)@."
    (float_of_int unfused /. 1e6)
    (float_of_int fused /. 1e6)
    (100.0 *. (1.0 -. (float_of_int fused /. float_of_int unfused)))

let faults_spec ~rate ~sigma ~seed =
  if rate = 0.0 && sigma = 0.0 then Gpu.Faults.none
  else Gpu.Faults.uniform_rate ~seed:(Int64.of_int seed) ~noise_sigma:sigma rate

let tune hp device mha flash_attn op_filter csv_out fault_rate noise fault_seed
    checkpoint =
  let program =
    Substation.Fusion.fuse ~name_table:(table_of ~mha) ~attention:flash_attn (program_of ~mha hp)
  in
  let faults = faults_spec ~rate:fault_rate ~sigma:noise ~seed:fault_seed in
  let db = Substation.Perfdb.build ~faults ?checkpoint ~device program in
  if not (Gpu.Faults.is_clean faults) then begin
    Format.printf "sweep under %a@." Gpu.Faults.pp faults;
    Format.printf "%a@.@." Substation.Perfdb.pp_stats
      (Substation.Perfdb.stats db);
    match Substation.Perfdb.holes db with
    | [] -> ()
    | hs -> Format.printf "holes (no surviving configuration): %s@.@."
              (String.concat ", " hs)
  end;
  (match csv_out with
  | Some path ->
      let oc = open_out path in
      output_string oc (Substation.Perfdb.export_csv db);
      close_out oc;
      Format.printf "wrote full configuration database to %s@." path
  | None -> ());
  List.iter
    (fun name ->
      match op_filter with
      | Some f when f <> name -> ()
      | _ ->
          let qs = Substation.Perfdb.quantiles db name [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
          let n = List.length (Substation.Perfdb.entries db name) in
          (match qs with
          | [ best; q25; med; q75; worst ] ->
              Format.printf
                "%-12s %6d configs  best %8.1f us  q25 %8.1f  med %8.1f  q75 \
                 %8.1f  worst %9.1f@."
                name n (best *. 1e6) (q25 *. 1e6) (med *. 1e6) (q75 *. 1e6)
                (worst *. 1e6)
          | _ -> ()))
    (Substation.Perfdb.op_names db)

let select hp device mha flash_attn =
  let program =
    Substation.Fusion.fuse ~name_table:(table_of ~mha) ~attention:flash_attn (program_of ~mha hp)
  in
  let db = Substation.Perfdb.build ~device program in
  let sel = Substation.Selector.select db in
  Format.printf "%a@.@." Substation.Selector.pp_selection sel;
  List.iter
    (fun (c : Substation.Selector.choice) ->
      Format.printf "  %-12s %8.1f us@." c.op.Ops.Op.name
        (c.measured.Substation.Config_space.time *. 1e6))
    (sel.Substation.Selector.forward @ sel.Substation.Selector.backward);
  Format.printf "@.selected container layouts:@.";
  List.iter
    (fun (c, l) -> Format.printf "  %-12s %s@." c (Layout.to_string l))
    sel.Substation.Selector.layouts

let compare_frameworks hp device mha =
  let workload = workload_of_mha mha in
  let show name (r : Frameworks.Executor.report) =
    Format.printf "%-10s forward %8.2f ms   backward %8.2f ms   total %8.2f ms@."
      name
      (r.Frameworks.Executor.forward_time *. 1e3)
      (r.Frameworks.Executor.backward_time *. 1e3)
      (Frameworks.Executor.total_time r *. 1e3)
  in
  show "PyTorch" (Frameworks.Pytorch_sim.report ~device ~workload hp);
  show "TF+XLA" (Frameworks.Xla_sim.report ~device ~workload hp);
  show "DeepSpeed" (Frameworks.Deepspeed_sim.report ~device ~workload hp);
  if mha then show "cuDNN" (Frameworks.Cudnn_sim.report ~device hp);
  show "Ours" (Frameworks.Ours.report ~device ~workload hp)

let memory hp _device mha flash_attn =
  let program = program_of ~mha hp in
  let fused = Substation.Fusion.fuse ~name_table:(table_of ~mha) ~attention:flash_attn program in
  let pu = Ops.Memory.profile program in
  let pf = Ops.Memory.profile fused in
  Format.printf "Configuration: %a@.@." Transformer.Hparams.pp hp;
  Format.printf "unfused program: %a@." Ops.Memory.pp pu;
  Format.printf "fused program:   %a@.@." Ops.Memory.pp pf;
  Format.printf "largest containers:@.";
  let sorted =
    List.sort
      (fun (a : Ops.Memory.lifetime) b -> compare b.bytes a.bytes)
      pu.Ops.Memory.lifetimes
  in
  List.iteri
    (fun i (l : Ops.Memory.lifetime) ->
      if i < 12 then
        Format.printf "  %-12s %8.1f MB  live [%d, %d]%s@." l.container
          (float_of_int l.bytes /. 1e6)
          l.first_use l.last_use
          (if l.persistent then " (persistent)" else ""))
    sorted;
  Format.printf "@.fits a 16 GB V100: %b@."
    (Ops.Memory.fits pu ~capacity:16_000_000_000)

let trace hp device mha out =
  let workload = workload_of_mha mha in
  let result = Frameworks.Ours.optimize ~device ~workload hp in
  let report = Frameworks.Executor.time_plan device result.Frameworks.Ours.plan in
  let json =
    Gpu.Trace.combined ~process:"substation"
      ~forward:report.Frameworks.Executor.forward
      ~backward:report.Frameworks.Executor.backward ()
  in
  let path = Option.value out ~default:"trace.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Format.printf
    "wrote %s (%d kernels) - open in chrome://tracing or ui.perfetto.dev@."
    path
    (List.length report.Frameworks.Executor.forward.Gpu.Simulator.timings
    + List.length report.Frameworks.Executor.backward.Gpu.Simulator.timings)

let with_context hp device f =
  let ctx = Report.Context.create ~hp ~device () in
  f ctx

let table hp device n as_csv =
  with_context hp device (fun ctx ->
      let s =
        if as_csv then Report.Tables.csv ctx n
        else
          match n with
          | 1 -> Report.Tables.table1 ctx
          | 2 -> Report.Tables.table2 ctx
          | 3 -> Report.Tables.table3 ctx
          | 4 -> Report.Tables.table4 ctx
          | 5 -> Report.Tables.table5 ctx
          | _ -> "tables are numbered 1-5"
      in
      print_endline s)

let figure hp device n out =
  with_context hp device (fun ctx ->
      let s =
        match n with
        | 1 -> Report.Figures.fig1 ctx
        | 2 -> Report.Figures.fig2 ctx
        | 3 -> Report.Figures.fig3 ctx
        | 4 -> Report.Figures.fig4 ctx
        | 5 -> Report.Figures.fig5 ctx
        | 6 -> Report.Figures.fig6_dot ctx
        | _ -> "figures are numbered 1-6"
      in
      match out with
      | None -> print_endline s
      | Some path ->
          let oc = open_out path in
          output_string oc s;
          close_out oc;
          Format.printf "wrote %s@." path)

let summary hp device =
  with_context hp device (fun ctx ->
      print_endline (Report.Experiments.render (Report.Experiments.summary ctx));
      print_endline
        (Report.Experiments.render (Report.Experiments.heuristic_gap_records ctx));
      print_endline
        (Report.Experiments.render (Report.Experiments.b96_comparison ~device ())))

let ablations hp device =
  with_context hp device (fun ctx ->
      print_endline (Report.Ablations.render (Report.Ablations.run ctx)))

let presets device =
  Format.printf
    "Optimized per-layer training-step time across model presets (paper \
     SVIII: other transformers differ only by dimensions)@.@.";
  Format.printf "%-14s %-36s %10s %10s %8s@." "preset" "configuration"
    "ours (ms)" "PT (ms)" "speedup";
  List.iter
    (fun (name, hp) ->
      let workload = Frameworks.Executor.Encoder_layer in
      let ours =
        Frameworks.Executor.total_time
          (Frameworks.Ours.report ~device ~workload hp)
      in
      let pt =
        Frameworks.Executor.total_time
          (Frameworks.Pytorch_sim.report ~device ~workload hp)
      in
      Format.printf "%-14s %-36s %10.2f %10.2f %7.2fx@." name
        (Format.asprintf "%a" Transformer.Hparams.pp hp)
        (ours *. 1e3) (pt *. 1e3) (pt /. ours))
    Transformer.Hparams.presets

let kv_fusion device =
  Format.printf
    "K/V algebraic fusion in encoder/decoder cross-attention (paper SIV-D)@.@.";
  List.iter
    (fun (v, fwd, bwd) ->
      Format.printf "  %-10s forward %6.0f us   backward(dX) %6.0f us@."
        (Transformer.Cross_attention.kv_variant_to_string v)
        (fwd *. 1e6) (bwd *. 1e6))
    (Transformer.Cross_attention.kv_fusion_times ~device
       Transformer.Hparams.bert_large)

let cost hp device =
  with_context hp device (fun ctx ->
      print_string (Report.Cost.render (Report.Cost.bert_savings ctx)))

let train steps lr checkpoint resume interrupt_after =
  let hp = Transformer.Hparams.tiny in
  let m = Transformer.Model.create ~n_layers:2 ~vocab:8 hp in
  Format.printf "training a %d-parameter toy BERT (%d layers)...@."
    (Transformer.Model.parameter_count m)
    m.Transformer.Model.n_layers;
  (match checkpoint with
  | Some path when Sys.file_exists path && not resume ->
      invalid_arg
        (Printf.sprintf
           "train: checkpoint %s already exists; pass --resume to continue \
            that run or delete the file to start over"
           path)
  | Some path when resume && Sys.file_exists path ->
      Format.printf "resuming from %s@." path
  | _ -> ());
  match
    Transformer.Training.train ?checkpoint ?interrupt_after m ~steps ~lr
      (Prng.create 42L)
  with
  | h ->
      Array.iteri (fun i l -> Format.printf "step %3d  loss %.4f@." i l) h.Transformer.Training.losses;
      Format.printf "loss: %.4f -> %.4f@." h.Transformer.Training.initial_loss
        h.Transformer.Training.final_loss
  | exception Transformer.Training.Interrupted path ->
      Format.printf
        "interrupted after %d step(s) this run; checkpoint at %s — rerun \
         with --checkpoint %s --resume to continue@."
        (Option.value interrupt_after ~default:0)
        path path

let resilience_demo hp mha flash_attn exec_rate seed deadline_ms
    kernel_timeout_ms no_fallback retries =
  let program = program_of ~mha hp in
  let plan =
    {
      Frameworks.Executor.name = "resilience";
      program;
      kernels_forward = [];
      kernels_backward = [];
      dispatch_overhead = 0.0;
    }
  in
  let prng = Prng.create 12L in
  let inputs =
    ("x", Transformer.Params.random_input hp prng)
    :: ("d_y", Transformer.Params.random_cotangent hp prng)
    :: Transformer.Params.init hp
  in
  (* The oracle run the faulted execution is judged against. *)
  let clean = Fastmode.with_naive (fun () -> Ops.Program.run program inputs) in
  let spec = Gpu.Faults.exec_uniform ~seed:(Int64.of_int seed) exec_rate in
  (* [--guard off] is honored (demonstrating unguarded failure); otherwise
     escalate the default exception guard to Finite so injected output
     corruption is detected, not just crashes. *)
  let guard =
    match Guard.current_level () with
    | Guard.Exceptions -> Guard.Finite
    | l -> l
  in
  let resilience =
    {
      Frameworks.Executor.deadline = Option.map (fun ms -> ms /. 1e3) deadline_ms;
      kernel_timeout = Some (kernel_timeout_ms /. 1e3);
      retries;
      fallback = not no_fallback;
    }
  in
  Guard.reset ();
  Format.printf
    "fault-injected run: %a, campaign %s, guard %s, fallback %b@."
    Transformer.Hparams.pp hp
    (Gpu.Faults.exec_fingerprint spec)
    (Guard.level_to_string guard) (not no_fallback);
  let env, report =
    Gpu.Faults.with_exec_faults spec (fun () ->
        Guard.with_level guard (fun () ->
            Frameworks.Executor.run ~resilience
              ~check:Frameworks.Executor.No_check
              (Compile.Regime.current ~attention:flash_attn ())
              plan inputs))
  in
  Format.printf "%a@." Frameworks.Executor.pp_run_report report;
  (match report.Frameworks.Executor.rr_quarantine with
  | [] -> Format.printf "quarantine: empty@."
  | q ->
      Format.printf "quarantine:@.";
      List.iter
        (fun (e : Guard.entry) ->
          Format.printf "  %-16s %-24s x%d@." e.Guard.q_kernel e.Guard.q_reason
            e.Guard.q_count)
        q);
  (match Pool.last_failure () with
  | Some f ->
      Format.printf "last worker failure: job %s, chunk %d (%d pool respawns)@."
        f.Pool.f_label f.Pool.f_chunk (Pool.respawn_count ())
  | None -> ());
  (* The compiled run keeps only terminal outputs; the naive oracle run
     materializes every intermediate. Judge the faulted run on every
     container it produced. *)
  let worst = ref 0.0 in
  let compared = ref 0 in
  Hashtbl.iter
    (fun c t ->
      match Hashtbl.find_opt clean c with
      | None -> ()
      | Some oracle ->
          incr compared;
          worst := Float.max !worst (Dense.max_abs_diff t oracle))
    env;
  if !compared = 0 then invalid_arg "resilience: no containers to compare";
  Format.printf "max |faulted - clean oracle| over %d shared containers: %g@."
    !compared !worst;
  Guard.reset ();
  if !worst > 1e-9 then begin
    Format.eprintf "resilience: faulted run diverged from the oracle@.";
    exit 1
  end

let serve hp trace_spec max_batch max_delay_ms queue_cap deadline_ms real
    layers out =
  let spec =
    match Serve.Loadgen.parse_spec trace_spec with
    | Ok s -> s
    | Error msg -> invalid_arg msg
  in
  (* --deadline-ms overrides the trace's own deadline (0 clears it). *)
  let spec =
    match deadline_ms with
    | None -> spec
    | Some ms ->
        {
          spec with
          Serve.Loadgen.deadline =
            (if ms > 0.0 then Some (ms /. 1000.0) else None);
        }
  in
  let hp = Transformer.Hparams.with_dropout hp 0.0 in
  let m =
    Transformer.Model.create ~n_layers:layers ~vocab:spec.Serve.Loadgen.vocab hp
  in
  let clock = if real then Serve.Clock.real else Serve.Clock.sim () in
  let policy =
    {
      Serve.Scheduler.default_policy with
      Serve.Scheduler.max_batch;
      max_queue_delay = max_delay_ms /. 1000.0;
      queue_capacity = queue_cap;
    }
  in
  let sched = Serve.Scheduler.create ~policy ~clock m in
  let arrivals = Serve.Loadgen.trace spec in
  Serve.Loadgen.run sched clock arrivals;
  let mt = Serve.Scheduler.metrics sched in
  let json = Serve.Metrics.to_json mt in
  (match out with
  | None -> print_endline json
  | Some path ->
      let oc = open_out path in
      output_string oc json;
      output_char oc '\n';
      close_out oc;
      Format.printf "wrote serving metrics to %s@." path);
  Format.printf
    "served %d/%d requests (%d rejected, %d shed, %d late) in %.3f s %s— \
     %.1f tokens/s, p50 %.2f ms, p99 %.2f ms@."
    mt.Serve.Metrics.completed (Array.length arrivals)
    mt.Serve.Metrics.rejected mt.Serve.Metrics.shed mt.Serve.Metrics.late
    (Serve.Metrics.span mt)
    (if real then "wall-clock " else "simulated ")
    (Serve.Metrics.tokens_per_sec mt)
    (Serve.Metrics.quantile mt.Serve.Metrics.latency 0.5 *. 1e3)
    (Serve.Metrics.quantile mt.Serve.Metrics.latency 0.99 *. 1e3)

(* [compile]: lower a program through the staged pipeline and report the
   plan — per-pass stats, cache behavior, optional
   per-stage SDFG export and bitwise verification against the uncompiled
   interpreter. *)
let compile_run hp mha flash_attn do_verify show_trace dot_dir =
  let keep_stages = dot_dir <> None in
  let regime = Compile.Regime.current ~attention:flash_attn () in
  let go () =
    Compile.Compiled.compile ~name_table:(table_of ~mha) ~verify:do_verify
      ~keep_stages regime (program_of ~mha hp)
  in
  let t0 = Pool.now () in
  let plan = go () in
  let first = Pool.now () -. t0 in
  if show_trace then print_string (Compile.Compiled.trace_to_string plan)
  else
    Format.printf "plan %s  %d ops -> %d ops%s@."
      (String.sub plan.Compile.Compiled.fingerprint 0 12)
      (List.length plan.Compile.Compiled.source.Ops.Program.ops)
      (List.length plan.Compile.Compiled.program.Ops.Program.ops)
      (if plan.Compile.Compiled.verified then "  verified" else "");
  (match dot_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iteri
        (fun i (pass, prog) ->
          let path = Filename.concat dir (Printf.sprintf "%02d-%s.dot" i pass) in
          Sdfg.Dot.write_file ~title:pass (Ops.Program.graph prog) path;
          Format.printf "wrote %s@." path)
        plan.Compile.Compiled.stages);
  (* Demonstrate the plan cache: recompile the same (program, regime) and
     show the second compile re-runs zero passes. Verification always
     recompiles, so the hit is only observable without --verify. *)
  if not do_verify then begin
    let runs0 = Compile.Compiled.pass_runs () in
    let t1 = Pool.now () in
    let plan2 = go () in
    let second = Pool.now () -. t1 in
    let hit = plan2 == plan && Compile.Compiled.pass_runs () = runs0 in
    Format.printf
      "recompile: cache %s (%d passes re-run)  %.2f ms -> %.3f ms@."
      (if hit then "hit" else "miss")
      (Compile.Compiled.pass_runs () - runs0)
      (first *. 1e3) (second *. 1e3)
  end;
  let cs = Compile.Compiled.cache_stats () in
  Format.printf "plan cache: %d hit(s), %d miss(es), %d compile(s)@."
    cs.Compile.Compiled.hits cs.Compile.Compiled.misses
    cs.Compile.Compiled.compiles

(* [env]: the consolidated SUBSTATION_* environment, one parse point. *)
let env_dump () = print_string (Substation.Env.describe ())

let faults_campaign hp device mha flash_attn seed rates sigmas punch =
  let open Substation in
  let program =
    Fusion.fuse ~name_table:(table_of ~mha) ~attention:flash_attn (program_of ~mha hp)
  in
  Format.printf "fault campaign: %a on %s, seed %d@.@." Transformer.Hparams.pp
    hp device.Gpu.Device.name seed;
  let clean_db = Perfdb.build ~device program in
  let clean = Selector.select clean_db in
  Format.printf "clean sweep: %d measurements, selected total %.3f ms@.@."
    (Perfdb.stats clean_db).Perfdb.measurements
    (clean.Selector.total_time *. 1e3);
  (* Selection quality: re-price the chosen configurations with the clean
     cost model, so the column reports how far faults *misled* selection,
     not how optimistic the noisy estimates look. *)
  let true_total (sel : Selector.selection) =
    let op_of name =
      List.find (fun (o : Ops.Op.t) -> o.Ops.Op.name = name) program.Ops.Program.ops
    in
    List.fold_left
      (fun acc (c : Selector.choice) ->
        acc
        +. (Config_space.measure ~device program (op_of c.Selector.op.Ops.Op.name)
              c.Selector.measured.Config_space.config)
             .Config_space.time)
      (List.fold_left
         (fun a (t : Selector.transpose) -> a +. t.Selector.cost)
         0.0 sel.Selector.transposes)
      (sel.Selector.forward @ sel.Selector.backward)
  in
  Format.printf "%-6s %-6s %12s %8s %11s %6s %10s %9s %9s@." "rate" "sigma"
    "measurements" "retries" "quarantined" "holes" "total(ms)" "vs clean"
    "degraded";
  List.iter
    (fun rate ->
      List.iter
        (fun sigma ->
          let faults = faults_spec ~rate ~sigma ~seed in
          let db = Perfdb.build ~faults ~device program in
          let sel = Selector.select db in
          let st = Perfdb.stats db in
          let holes = List.length (Perfdb.holes db) in
          let true_t = true_total sel in
          let delta =
            100.0 *. ((true_t /. clean.Selector.total_time) -. 1.0)
          in
          Format.printf "%-6.2f %-6.2f %12d %8d %11d %6d %10.3f %+8.2f%% %9d@."
            rate sigma st.Perfdb.measurements st.Perfdb.retries
            st.Perfdb.quarantined_configs holes (true_t *. 1e3) delta
            (List.length sel.Selector.degradation.Selector.degraded_ops))
        sigmas)
    rates;
  if punch > 0 then begin
    let names =
      List.filteri (fun i _ -> i < punch) (Perfdb.op_names clean_db)
    in
    let holed = Perfdb.punched clean_db names in
    let sel = Selector.select holed in
    Format.printf
      "@.degraded-mode demonstration (holes punched into the clean database: \
       %s):@.%a@."
      (String.concat ", " names) Selector.pp_degradation
      sel.Selector.degradation
  end

(* ---------------- command wiring ---------------- *)

(* --domains is available on every subcommand: the setup term runs (and
   pins the Pool size) during argument evaluation, before the command
   body — the standard cmdliner setup-term idiom. *)
let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for the multicore CPU numeric backend (0 or 1 = \
           run serial). Overrides $(b,SUBSTATION_DOMAINS); the default is \
           the machine's recommended domain count.")

let domains_setup =
  Term.(
    const (function None -> () | Some n -> Pool.set_domains n)
    $ domains_arg)

let guard_conv =
  let parse s =
    match Guard.level_of_string s with
    | Some l -> Ok l
    | None ->
        Error (`Msg (Printf.sprintf "unknown guard level %S (off|exn|nan|finite)" s))
  in
  Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (Guard.level_to_string l))

let guard_arg =
  Arg.(
    value
    & opt (some guard_conv) None
    & info [ "guard" ] ~docv:"LEVEL"
        ~doc:
          "Fast-kernel guard level: $(b,off), $(b,exn) (catch exceptions), \
           $(b,nan) (also scan outputs for NaN), or $(b,finite) (also \
           reject Inf). Overrides $(b,SUBSTATION_GUARD).")

let guard_setup =
  Term.(
    const (function None -> () | Some l -> Guard.set_level l)
    $ guard_arg)

let flash_attn_arg =
  Arg.(
    value & flag
    & info [ "flash-attn" ]
        ~doc:
          "Let the fusion pass recognize the attention interior (QK^T / \
           softmax / dropout / V) and pin it as one streaming tiled kernel \
           across its contraction barriers, eliding the L x L score \
           containers.")

let cmd name doc term =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (fun () () r -> r) $ domains_setup $ guard_setup $ term)

let analyze_cmd =
  cmd "analyze" "Dataflow analysis: flop, data volumes, operator classes."
    Term.(const analyze $ hp_arg $ device_arg $ mha_arg)

let fuse_cmd =
  cmd "fuse" "Run the fusion pass and report kernels and data-movement savings."
    Term.(const fuse $ hp_arg $ device_arg $ mha_arg $ flash_attn_arg)

let op_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "op" ] ~docv:"OP" ~doc:"Restrict to one operator.")

let tune_csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-csv" ] ~docv:"FILE"
        ~doc:"Also write the full configuration database as CSV.")

let fault_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fault-rate" ] ~docv:"R"
        ~doc:
          "Inject measurement faults: R is split across transient \
           crash/timeout/NaN failures plus R/10 permanent faults.")

let noise_arg =
  Arg.(
    value & opt float 0.0
    & info [ "noise" ] ~docv:"SIGMA"
        ~doc:"Relative gaussian timing noise (median-of-k aggregation kicks \
              in when nonzero).")

let fault_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "fault-seed" ] ~docv:"N" ~doc:"Fault-model seed.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Checkpoint the sweep to FILE after every operator and resume \
           from it when it exists.")

let tune_cmd =
  cmd "tune" "Sweep every configuration of every operator (paper Figs. 4-5)."
    Term.(
      const tune $ hp_arg $ device_arg $ mha_arg $ flash_attn_arg $ op_arg
      $ tune_csv_arg $ fault_rate_arg $ noise_arg $ fault_seed_arg
      $ checkpoint_arg)

let rates_arg =
  Arg.(
    value
    & opt (list float) [ 0.05; 0.1; 0.2 ]
    & info [ "rates" ] ~docv:"R,..." ~doc:"Fault rates to sweep.")

let sigmas_arg =
  Arg.(
    value
    & opt (list float) [ 0.0; 0.05 ]
    & info [ "sigmas" ] ~docv:"S,..." ~doc:"Timing-noise sigmas to sweep.")

let punch_arg =
  Arg.(
    value & opt int 1
    & info [ "punch" ] ~docv:"N"
        ~doc:
          "Also demonstrate degraded-mode selection by punching N operator \
           holes into the clean database (0 disables).")

let faults_cmd =
  cmd "faults"
    "Fault-injection campaign: sweep failure rates x noise levels and report \
     selection-quality degradation vs the clean run."
    Term.(
      const faults_campaign $ hp_arg $ device_arg $ mha_arg $ flash_attn_arg
      $ fault_seed_arg
      $ rates_arg $ sigmas_arg $ punch_arg)

let select_cmd =
  cmd "select" "Global configuration selection via SSSP (paper Fig. 6)."
    Term.(const select $ hp_arg $ device_arg $ mha_arg $ flash_attn_arg)

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Prove the lowering: after every pass, execute the staged program \
           and check every container against the uncompiled interpreter, \
           bitwise.")

let compile_trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print the per-pass trace: operator counts before/after, peak \
           floats, elapsed time, and each pass's note.")

let dot_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot-dir" ] ~docv:"DIR"
        ~doc:
          "Export each pass's output program as a Graphviz SDFG to \
           DIR/NN-pass.dot.")

let compile_cmd =
  cmd "compile"
    "Lower a program through the staged compiler pipeline (canonicalize, \
     DCE/CSE, attention windowing, fusion, memory planning) and report the \
     cached plan."
    Term.(
      const compile_run $ hp_arg $ mha_arg $ flash_attn_arg $ verify_arg
      $ compile_trace_arg $ dot_dir_arg)

let env_cmd =
  cmd "env"
    "Describe the SUBSTATION_* environment toggles: current values, \
     defaults, and any malformed settings that were ignored."
    Term.(const env_dump $ const ())

let compare_cmd =
  cmd "compare" "Compare simulated frameworks (paper Tables IV-V)."
    Term.(const compare_frameworks $ hp_arg $ device_arg $ mha_arg)

let n_arg =
  Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Number.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write output to FILE.")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of aligned text.")

let table_cmd =
  cmd "table" "Regenerate a paper table (1-5)."
    Term.(const table $ hp_arg $ device_arg $ n_arg $ csv_arg)

let figure_cmd =
  cmd "figure" "Regenerate a paper figure (1-5; 6 as Graphviz dot)."
    Term.(const figure $ hp_arg $ device_arg $ n_arg $ out_arg)

let summary_cmd =
  cmd "summary" "Paper-vs-measured record for every headline claim."
    Term.(const summary $ hp_arg $ device_arg)

let ablations_cmd =
  cmd "ablations"
    "Ablation studies: fusion x layout, selection strategy, device, GEMM \
     algorithm."
    Term.(const ablations $ hp_arg $ device_arg)

let cost_cmd =
  cmd "cost" "Training-cost savings estimate (the paper's \\$85k claim)."
    Term.(const cost $ hp_arg $ device_arg)

let presets_cmd =
  cmd "presets" "Optimize a layer of each well-known model configuration."
    Term.(const presets $ device_arg)

let kv_fusion_cmd =
  cmd "kv-fusion" "Algebraic K/V fusion for cross-attention (Table II analogue)."
    Term.(const kv_fusion $ device_arg)

let memory_cmd =
  cmd "memory" "Activation-memory profile of the training step."
    Term.(const memory $ hp_arg $ device_arg $ mha_arg $ flash_attn_arg)

let trace_cmd =
  cmd "trace" "Export the optimized kernel timeline as a Chrome trace."
    Term.(const trace $ hp_arg $ device_arg $ mha_arg $ out_arg)

let steps_arg =
  Arg.(value & opt int 30 & info [ "steps" ] ~docv:"N" ~doc:"Training steps.")

let lr_arg =
  Arg.(value & opt float 0.15 & info [ "lr" ] ~docv:"LR" ~doc:"Learning rate.")

let train_checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Write a crash-safe step checkpoint to FILE after every training \
           step (removed on completion).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from an existing $(b,--checkpoint) file; the resumed run \
           is bitwise identical to an uninterrupted one.")

let interrupt_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "interrupt-after" ] ~docv:"N"
        ~doc:
          "Simulate a crash after N steps complete in this invocation (the \
           step's checkpoint is already on disk).")

let train_cmd =
  cmd "train" "Train a toy stacked-encoder model (functional numerics)."
    Term.(
      const train $ steps_arg $ lr_arg $ train_checkpoint_arg $ resume_arg
      $ interrupt_after_arg)

let exec_rate_arg =
  Arg.(
    value & opt float 1.0
    & info [ "exec-rate" ] ~docv:"R"
        ~doc:
          "Execution-fault budget per kernel/chunk, split across injected \
           crashes, hangs, output corruption, and mid-chunk worker crashes.")

let deadline_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Whole-run deadline in milliseconds (cancels in-flight work).")

let kernel_timeout_ms_arg =
  Arg.(
    value & opt float 50.0
    & info [ "kernel-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-kernel watchdog in milliseconds: a hung fast kernel is cut \
           short and re-executed via the naive oracle.")

let no_fallback_arg =
  Arg.(
    value & flag
    & info [ "no-fallback" ]
        ~doc:
          "Disable the naive-oracle fallback: guarded failures surface as \
           errors instead of being healed.")

let retries_arg =
  Arg.(
    value & opt int 1
    & info [ "retries" ] ~docv:"N"
        ~doc:"Whole-op retries (fresh fault draws) before giving up.")

let trace_spec_arg =
  Arg.(
    value
    & opt string "poisson:n=32,rate=200,prompt=2-6,gen=8,seed=1"
    & info [ "trace" ] ~docv:"SPEC"
        ~doc:
          "Load trace: $(b,uniform:gap-ms=..), $(b,poisson:rate=..), or \
           $(b,bursty:burst=..,period-ms=..), each with \
           n=,prompt=LO-HI,gen=,deadline-ms=,vocab=,seed=.")

let max_batch_arg =
  Arg.(
    value & opt int 4
    & info [ "max-batch" ] ~docv:"N" ~doc:"Micro-batch size cap.")

let max_delay_ms_arg =
  Arg.(
    value & opt float 2.0
    & info [ "max-delay-ms" ] ~docv:"MS"
        ~doc:"How long a cold batch may wait to fill before launching.")

let queue_cap_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:"Admission queue bound; arrivals beyond it are rejected.")

let serve_deadline_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request deadline, overriding the trace's (0 disables). \
           Lapsed requests are shed; repeated misses shrink the batch cap.")

let real_clock_arg =
  Arg.(
    value & flag
    & info [ "real-clock" ]
        ~doc:
          "Serve on the wall clock (decode steps run under a deadline \
           guard) instead of the deterministic simulated clock.")

let layers_arg =
  Arg.(
    value & opt int 2
    & info [ "layers" ] ~docv:"N" ~doc:"Decoder layers in the served model.")

let serve_cmd =
  cmd "serve"
    "Serve generation requests: KV-cached incremental decoding under a \
     dynamic micro-batching scheduler, driven by a deterministic load trace."
    Term.(
      const serve $ hp_arg $ trace_spec_arg $ max_batch_arg $ max_delay_ms_arg
      $ queue_cap_arg $ serve_deadline_ms_arg $ real_clock_arg $ layers_arg
      $ out_arg)

let resilience_cmd =
  cmd "resilience"
    "Fault-injected encoder forward+backward under the supervised pool: \
     guarded kernels fall back to the naive oracle and the result is \
     checked bitwise against a clean oracle run."
    Term.(
      const resilience_demo $ hp_arg $ mha_arg $ flash_attn_arg $ exec_rate_arg
      $ fault_seed_arg $ deadline_ms_arg $ kernel_timeout_ms_arg
      $ no_fallback_arg $ retries_arg)

let () =
  let info =
    Cmd.info "substation"
      ~doc:
        "Data-movement optimization recipe for transformers (MLSys 2021 \
         reproduction)."
  in
  (* Recoverable misuse (stale checkpoints, bad fault specs, holed-database
     lookups) raises Invalid_argument/Failure with a remediation hint;
     present it as a normal CLI error rather than an uncaught-exception
     backtrace. *)
  let eval group =
    try Cmd.eval ~catch:false group with
    | Invalid_argument msg | Failure msg ->
        Printf.eprintf "substation: %s\n" msg;
        Cmd.Exit.some_error
    | ( Guard.Guard_fault _ | Pool.Deadline_exceeded _
      | Execfault.Injected_crash _ ) as e ->
        (* --no-fallback / an expired --deadline-ms surface the underlying
           fault; registered printers render it. *)
        Printf.eprintf "substation: %s\n" (Printexc.to_string e);
        Cmd.Exit.some_error
  in
  exit
    (eval
       (Cmd.group info
          [
            analyze_cmd; fuse_cmd; compile_cmd; env_cmd; tune_cmd; select_cmd;
            compare_cmd; table_cmd; figure_cmd; summary_cmd; ablations_cmd;
            train_cmd; memory_cmd; trace_cmd; presets_cmd; kv_fusion_cmd;
            cost_cmd; faults_cmd; resilience_cmd; serve_cmd;
          ]))

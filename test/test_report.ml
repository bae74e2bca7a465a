(* Tests for table/figure regeneration: every table's data has the paper's
   qualitative shape, renders cleanly, and the headline-claim records hold. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* one shared context: this builds every framework report and the recipe *)
let ctx = lazy (Report.Context.create ())

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---------------- Table I ---------------- *)

let test_table1_shape () =
  let rows = Report.Tables.table1_data (Lazy.force ctx) in
  check_int "three classes" 3 (List.length rows);
  let row cls = List.find (fun (r : Report.Tables.class_row) -> r.cls = cls) rows in
  let contraction = row Sdfg.Opclass.Contraction in
  check_bool "contractions are ~99.8% of flop" true
    (Float.abs (contraction.flop_pct -. 99.8) < 0.2);
  (* the paper's headline: >99% of flop but only ~61% of runtime *)
  check_bool
    (Printf.sprintf "contraction runtime share %.1f%% in [50, 72] (paper 61)"
       contraction.runtime_pct)
    true
    (contraction.runtime_pct >= 50.0 && contraction.runtime_pct <= 72.0);
  let total_runtime =
    List.fold_left (fun a (r : Report.Tables.class_row) -> a +. r.runtime_pct) 0.0 rows
  in
  check_bool "runtime shares sum to 100" true (Float.abs (total_runtime -. 100.0) < 0.5)

(* ---------------- Table II ---------------- *)

let test_table2_monotone () =
  let rows = Report.Tables.table2_data Transformer.Hparams.bert_large in
  check_int "three variants" 3 (List.length rows);
  match rows with
  | [ unfused; qk; qkv ] ->
      check_bool "forward: unfused > QK-fused" true
        (unfused.Report.Tables.forward_s > qk.Report.Tables.forward_s);
      check_bool "forward: QK-fused > QKV-fused" true
        (qk.Report.Tables.forward_s > qkv.Report.Tables.forward_s);
      check_bool "backward: unfused > QKV-fused" true
        (unfused.Report.Tables.backward_s > qkv.Report.Tables.backward_s);
      (* paper: 345 -> 275 us forward, about a 1.25x gain *)
      let gain = unfused.Report.Tables.forward_s /. qkv.Report.Tables.forward_s in
      check_bool
        (Printf.sprintf "QKV fwd gain %.2fx in [1.1, 1.5] (paper 1.25x)" gain)
        true (gain >= 1.1 && gain <= 1.5)
  | _ -> Alcotest.fail "expected three rows"

(* ---------------- Table III ---------------- *)

let test_table3_rows () =
  let rows = Report.Tables.table3_data (Lazy.force ctx) in
  check_int "32 kernels (11 forward + 21 backward)" 32 (List.length rows);
  List.iter
    (fun (r : Report.Tables.op_row) ->
      check_bool (r.kernel ^ " positive times") true
        (r.pt_time > 0.0 && r.ours_time > 0.0);
      check_bool (r.kernel ^ " speedup positive") true (r.speedup > 0.0);
      check_bool (r.kernel ^ " mue in [0, 100]") true (r.mue >= 0.0 && r.mue <= 100.0))
    rows;
  (* most fused kernels beat PyTorch, as in the paper *)
  let fused_rows =
    List.filter (fun (r : Report.Tables.op_row) -> List.length r.members > 1) rows
  in
  let wins =
    List.length (List.filter (fun (r : Report.Tables.op_row) -> r.speedup > 1.0) fused_rows)
  in
  check_bool
    (Printf.sprintf "most fused kernels beat PyTorch (%d of %d)" wins
       (List.length fused_rows))
    true
    (float_of_int wins >= 0.7 *. float_of_int (List.length fused_rows))

let test_table3_class_totals () =
  let totals = Report.Tables.table3_class_totals (Lazy.force ctx) in
  let get cls = List.find (fun (c, _, _, _) -> c = cls) totals in
  let _, gflop_c, pt_c, ours_c = get Sdfg.Opclass.Contraction in
  check_bool "contraction gflop ~312" true (Float.abs (gflop_c -. 312.0) < 3.0);
  check_bool "ours contraction total faster than PT" true (ours_c < pt_c);
  let _, gflop_n, _, _ = get Sdfg.Opclass.Normalization in
  check_bool "normalization gflop tiny" true (gflop_n < 2.0)

let test_table3_specific_kernels () =
  let rows = Report.Tables.table3_data (Lazy.force ctx) in
  let row name = List.find (fun (r : Report.Tables.op_row) -> r.kernel = name) rows in
  (* SM writes 3x its input (saved softmax + dropout output + mask) *)
  let sm = row "SM" in
  check_bool "SM output ~3x input" true
    (Float.abs ((sm.output_melems /. sm.input_melems) -. 3.0) < 0.1);
  (* QKV: 24 binary Gflop, in ~7.3 Melems, out ~12.6 Melems (Table III row 1) *)
  let qkv = row "qkv" in
  check_bool "qkv ~24 Gflop" true (Float.abs (qkv.gflop -. 24.0) < 0.2);
  check_bool "qkv input ~7.3M" true (Float.abs (qkv.input_melems -. 7.3) < 0.2);
  check_bool "qkv output ~12.6M" true (Float.abs (qkv.output_melems -. 12.6) < 0.2);
  (* contractions are compute-dominated: pct of peak over 30 *)
  check_bool "qkv compute-heavy" true (qkv.ours_pct_peak > 30.0)

(* ---------------- Tables IV & V ---------------- *)

let test_table4_ordering () =
  let rows = Report.Tables.table4_data (Lazy.force ctx) in
  let time name =
    let r = List.find (fun (r : Report.Tables.framework_row) -> r.framework = name) rows in
    r.Report.Tables.forward_time +. r.Report.Tables.backward_time
  in
  check_bool "ours < TF+XLA" true (time "Ours" < time "TF+XLA");
  check_bool "TF+XLA < PyTorch" true (time "TF+XLA" < time "PyTorch");
  check_bool "cuDNN slowest by far" true (time "cuDNN" > 20.0 *. time "PyTorch")

let test_table5_ordering () =
  let rows = Report.Tables.table5_data (Lazy.force ctx) in
  let time name =
    let r = List.find (fun (r : Report.Tables.framework_row) -> r.framework = name) rows in
    r.Report.Tables.forward_time +. r.Report.Tables.backward_time
  in
  check_bool "ours < DeepSpeed < TF+XLA < PyTorch" true
    (time "Ours" < time "DeepSpeed"
    && time "DeepSpeed" < time "TF+XLA"
    && time "TF+XLA" < time "PyTorch")

let test_tables_render () =
  let ctx = Lazy.force ctx in
  List.iter
    (fun (label, text, needle) ->
      check_bool (label ^ " renders") true (String.length text > 50);
      check_bool (label ^ " mentions " ^ needle) true (contains text needle))
    [
      ("table1", Report.Tables.table1 ctx, "tensor contraction");
      ("table2", Report.Tables.table2 ctx, "QKV fused");
      ("table3", Report.Tables.table3 ctx, "BDRB");
      ("table4", Report.Tables.table4 ctx, "cuDNN");
      ("table5", Report.Tables.table5 ctx, "DeepSpeed");
    ]

(* ---------------- Figures ---------------- *)

let test_fig1_fig2 () =
  let ctx = Lazy.force ctx in
  let fig1 = Report.Figures.fig1_data ctx in
  check_bool "MHA has ~10 forward operators" true (List.length fig1 >= 8);
  check_bool "contains the QKT contraction" true
    (List.exists (fun (r : Report.Figures.flow_row) -> r.op_name = "qkt") fig1);
  let fig2 = Report.Figures.fig2_data ctx in
  check_int "Fig. 2 covers all 52 operators" 52 (List.length fig2);
  (* memory-bound operators exist in both passes *)
  check_bool "has io-dominated ops" true
    (List.exists
       (fun (r : Report.Figures.flow_row) -> r.bound = Sdfg.Analysis.Io_dominated)
       fig2)

let test_fig4_tiles () =
  let tiles = Report.Figures.fig4_data (Lazy.force ctx) in
  check_bool "at least 8 distinct GEMM shapes" true (List.length tiles >= 8);
  let shapes = List.map (fun (t : Report.Figures.gemm_tile) -> t.shape) tiles in
  (* the paper's Fig. 4 tile labels *)
  check_bool "QKV tile" true (List.mem "M: 4096, N: 3072, K: 1024, B: 1" shapes);
  check_bool "QKT tile" true (List.mem "M: 512, N: 512, K: 64, B: 128" shapes);
  check_bool "lin1 tile" true (List.mem "M: 4096, N: 4096, K: 1024, B: 1" shapes);
  List.iter
    (fun (t : Report.Figures.gemm_tile) ->
      match (t.tensor_cores, t.fp16) with
      | Some tc, Some fp ->
          check_bool (t.label ^ ": TC best beats FPU best") true (tc.best < fp.best);
          check_bool (t.label ^ ": distributions ordered") true
            (tc.best <= tc.median && tc.median <= tc.worst)
      | _ -> ())
    tiles

let test_fig5_distributions () =
  let dists = Report.Figures.fig5_data (Lazy.force ctx) in
  check_bool "at least 12 fused kernels" true (List.length dists >= 12);
  List.iter
    (fun { Report.Figures.kernel; dist } ->
      check_bool (kernel ^ " wide spread (paper: orders of magnitude)") true
        (dist.Report.Figures.worst /. dist.Report.Figures.best > 3.0);
      check_bool (kernel ^ " quartiles ordered") true
        (dist.best <= dist.q25 && dist.q25 <= dist.median
        && dist.median <= dist.q75 && dist.q75 <= dist.worst))
    dists;
  (* the famous AIB tail: worst/best well over 10x *)
  let aib = List.find (fun d -> d.Report.Figures.kernel = "AIB") dists in
  check_bool "AIB worst/best > 5x" true
    (aib.dist.Report.Figures.worst /. aib.dist.Report.Figures.best > 5.0)

let test_fig6_dot () =
  let dot = Report.Figures.fig6_dot ~max_ops:2 (Lazy.force ctx) in
  check_bool "digraph" true (contains dot "digraph");
  check_bool "source node" true (contains dot "source");
  check_bool "AIB edges" true (contains dot "AIB")

let test_dataflow_dots () =
  let ctx = Lazy.force ctx in
  check_bool "encoder dot" true
    (contains (Report.Figures.encoder_dataflow_dot ctx) "digraph");
  check_bool "mha dot" true
    (contains (Report.Figures.mha_dataflow_dot ctx) "digraph")

(* ---------------- headline claims ---------------- *)

let test_summary_records_hold () =
  let records = Report.Experiments.summary (Lazy.force ctx) in
  check_int "five headline claims" 5 (List.length records);
  List.iter
    (fun (r : Report.Experiments.record) ->
      check_bool
        (Printf.sprintf "%s holds (paper %s, measured %s)" r.id r.paper r.measured)
        true r.holds)
    records

let test_heuristic_gap_record () =
  List.iter
    (fun (r : Report.Experiments.record) ->
      check_bool (r.id ^ " holds") true r.holds)
    (Report.Experiments.heuristic_gap_records (Lazy.force ctx))

let test_render_records () =
  let text = Report.Experiments.render (Report.Experiments.summary (Lazy.force ctx)) in
  check_bool "renders" true (contains text "claim-speedup-pt")

(* ---------------- ablations ---------------- *)

(* The four studies behind `substation_cli ablations`: one row per
   quadrant, strategy, device and contraction, and one table row each in
   the rendering. *)
let test_ablations () =
  let ctx = Lazy.force ctx in
  let a = Report.Ablations.run ctx in
  let quadrant f l =
    List.filter
      (fun (q : Report.Ablations.quadrant) -> q.fusion = f && q.layout = l)
      a.fusion_layout
  in
  check_int "four quadrants" 4 (List.length a.fusion_layout);
  List.iter
    (fun (f, l) -> check_int "each quadrant once" 1 (List.length (quadrant f l)))
    [ (false, false); (true, false); (false, true); (true, true) ];
  let time f l = (List.hd (quadrant f l)).time in
  (* the paper's claim: neither fusion nor layout selection alone suffices *)
  check_bool "fusion + layout beats either alone" true
    (time true true < time true false && time true true < time false true);
  (match a.selection with
  | [ (_, global); (_, greedy); (_, bound) ] ->
      check_bool "lower bound <= SSSP <= greedy" true
        (bound <= global && global <= greedy)
  | rows -> Alcotest.failf "expected three strategies, got %d" (List.length rows));
  Alcotest.(check (list string))
    "one row per device"
    [ Gpu.Device.v100.name; Gpu.Device.a100.name ]
    (List.map (fun (d, _, _) -> d) a.devices);
  List.iter
    (fun (d, ours, pt) ->
      check_bool (d ^ ": ours beats PyTorch") true (0.0 < ours && ours < pt))
    a.devices;
  let fused = ctx.ours.Frameworks.Ours.recipe.Substation.Recipe.fused in
  Alcotest.(check (list string))
    "one row per contraction"
    (List.filter_map
       (fun (op : Ops.Op.t) ->
         match op.kind with Ops.Op.Gemm _ -> Some op.name | _ -> None)
       fused.Ops.Program.ops)
    (List.map (fun (k, _, _) -> k) a.gemm_algorithm);
  List.iter
    (fun (k, heuristic, best) ->
      check_bool (k ^ ": exhaustive <= heuristic") true (best <= heuristic))
    a.gemm_algorithm;
  (* title, header and rule per table, one line per row, plus the total *)
  let lines =
    String.split_on_char '\n' (Report.Ablations.render a)
    |> List.filter (fun l -> String.trim l <> "")
  in
  check_int "rendered lines"
    ((4 * 3) + 4 + 3 + 2 + List.length a.gemm_algorithm + 1)
    (List.length lines)

(* ---------------- table formatting ---------------- *)

let test_table_fmt () =
  let text =
    Report.Table_fmt.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  check_bool "aligned" true (contains text "---");
  Alcotest.(check string) "us" "1500" (Report.Table_fmt.us 1.5e-3);
  Alcotest.(check string) "ms" "2.50" (Report.Table_fmt.ms 2.5e-3);
  Alcotest.(check string) "pct" "12.5" (Report.Table_fmt.pct 0.125);
  Alcotest.(check string) "binary gflop" "24.000"
    (Report.Table_fmt.gflop_binary (24 * 1073741824))

let () =
  Alcotest.run "report"
    [
      ( "tables",
        [
          Alcotest.test_case "Table I shape" `Slow test_table1_shape;
          Alcotest.test_case "Table II monotone" `Slow test_table2_monotone;
          Alcotest.test_case "Table III rows" `Slow test_table3_rows;
          Alcotest.test_case "Table III class totals" `Slow test_table3_class_totals;
          Alcotest.test_case "Table III specific kernels" `Slow
            test_table3_specific_kernels;
          Alcotest.test_case "Table IV ordering" `Slow test_table4_ordering;
          Alcotest.test_case "Table V ordering" `Slow test_table5_ordering;
          Alcotest.test_case "rendering" `Slow test_tables_render;
        ] );
      ( "figures",
        [
          Alcotest.test_case "Figs. 1-2 dataflow" `Slow test_fig1_fig2;
          Alcotest.test_case "Fig. 4 GEMM tiles" `Slow test_fig4_tiles;
          Alcotest.test_case "Fig. 5 fused kernels" `Slow test_fig5_distributions;
          Alcotest.test_case "Fig. 6 selection graph" `Slow test_fig6_dot;
          Alcotest.test_case "dataflow exports" `Slow test_dataflow_dots;
        ] );
      ( "claims",
        [
          Alcotest.test_case "headline claims hold" `Slow test_summary_records_hold;
          Alcotest.test_case "heuristic gap" `Slow test_heuristic_gap_record;
          Alcotest.test_case "record rendering" `Slow test_render_records;
        ] );
      ( "ablations",
        [ Alcotest.test_case "four studies, row structure" `Slow test_ablations ] );
      ("formatting", [ Alcotest.test_case "table_fmt" `Quick test_table_fmt ]);
    ]

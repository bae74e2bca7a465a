type quadrant = { fusion : bool; layout : bool; time : float }

type t = {
  fusion_layout : quadrant list;
  selection : (string * float) list;
  devices : (string * float * float) list;
  gemm_algorithm : (string * float * float) list;
}

let default_total ~device program =
  let kernels =
    Frameworks.Executor.default_kernels ~device program program.Ops.Program.ops
  in
  (Gpu.Simulator.run device kernels).Gpu.Simulator.total_time

let fusion_layout (ctx : Context.t) =
  let device = ctx.device in
  let unfused = ctx.unfused in
  let fused = ctx.ours.Frameworks.Ours.recipe.Substation.Recipe.fused in
  let select program =
    let db = Substation.Perfdb.build ~device program in
    (Substation.Selector.select db).Substation.Selector.total_time
  in
  [
    { fusion = false; layout = false; time = default_total ~device unfused };
    { fusion = true; layout = false; time = default_total ~device fused };
    { fusion = false; layout = true; time = select unfused };
    {
      fusion = true;
      layout = true;
      time =
        ctx.ours.Frameworks.Ours.recipe.Substation.Recipe.selection
          .Substation.Selector.total_time;
    };
  ]

let selection (ctx : Context.t) =
  let recipe = ctx.ours.Frameworks.Ours.recipe in
  let db = recipe.Substation.Recipe.db in
  let sel = recipe.Substation.Recipe.selection in
  let greedy = Substation.Selector.greedy db in
  [
    ("global SSSP selection", sel.Substation.Selector.total_time);
    ("greedy per-operator best + transposes", greedy.Substation.Selector.total_time);
    ( "per-operator lower bound (layout-inconsistent)",
      Substation.Perfdb.sum_best db );
  ]

let device_sensitivity hp =
  List.map
    (fun device ->
      let ours =
        Frameworks.Ours.report ~device ~workload:Frameworks.Executor.Encoder_layer
          hp
      in
      let pt =
        Frameworks.Pytorch_sim.report ~device
          ~workload:Frameworks.Executor.Encoder_layer hp
      in
      ( device.Gpu.Device.name,
        Frameworks.Executor.total_time ours,
        Frameworks.Executor.total_time pt ))
    [ Gpu.Device.v100; Gpu.Device.a100 ]

let gemm_algorithm (ctx : Context.t) =
  let device = ctx.device in
  let program = ctx.ours.Frameworks.Ours.recipe.Substation.Recipe.fused in
  List.filter_map
    (fun (op : Ops.Op.t) ->
      match op.Ops.Op.kind with
      | Ops.Op.Gemm _ ->
          let t cfg =
            (Substation.Config_space.measure ~device program op cfg)
              .Substation.Config_space.time
          in
          Some
            ( op.Ops.Op.name,
              t (Substation.Config_space.default_config program op),
              t (Substation.Config_space.tuned_default_config ~device program op)
            )
      | Ops.Op.Map | Ops.Op.Reduce -> None)
    program.Ops.Program.ops

let run ctx =
  {
    fusion_layout = fusion_layout ctx;
    selection = selection ctx;
    devices = device_sensitivity ctx.Context.hp;
    gemm_algorithm = gemm_algorithm ctx;
  }

let render t =
  let yes_no b = if b then "yes" else "no" in
  let total f = List.fold_left (fun a r -> a +. f r) 0.0 t.gemm_algorithm in
  let heuristic = total (fun (_, h, _) -> h) and best = total (fun (_, _, b) -> b) in
  String.concat "\n"
    [
      "Ablation: fusion x layout selection (encoder fwd+bwd)\n"
      ^ Table_fmt.render
          ~header:[ "fusion"; "layout selection"; "time (ms)" ]
          (List.map
             (fun q -> [ yes_no q.fusion; yes_no q.layout; Table_fmt.ms q.time ])
             t.fusion_layout);
      "Ablation: configuration selection strategy\n"
      ^ Table_fmt.render ~header:[ "strategy"; "time (ms)" ]
          (List.map (fun (label, s) -> [ label; Table_fmt.ms s ]) t.selection);
      "Ablation: device sensitivity (optimized vs PyTorch baseline)\n"
      ^ Table_fmt.render
          ~header:[ "device"; "ours (ms)"; "PyTorch (ms)"; "speedup" ]
          (List.map
             (fun (name, ours, pt) ->
               [ name; Table_fmt.ms ours; Table_fmt.ms pt; Table_fmt.f2 (pt /. ours) ])
             t.devices);
      "Ablation: cuBLAS-heuristic vs exhaustive GEMM algorithm choice\n"
      ^ Table_fmt.render
          ~header:[ "contraction"; "heuristic (us)"; "best (us)"; "gain" ]
          (List.map
             (fun (name, h, b) ->
               [ name; Table_fmt.us h; Table_fmt.us b; Table_fmt.f2 (h /. b) ])
             t.gemm_algorithm
          @ [
              [ "total"; Table_fmt.us heuristic; Table_fmt.us best;
                Table_fmt.f2 (heuristic /. best) ];
            ]);
    ]

type gemm_config = {
  layout_a : Layout.t;
  layout_b : Layout.t;
  layout_c : Layout.t;
  ta : Gpu.Gemm_model.transpose;
  tb : Gpu.Gemm_model.transpose;
  use_tc : bool;
  algo : Gpu.Gemm_model.algo;
}

type fused_config = {
  group_layouts : (string * Layout.t) list;
  vec_axis : Axis.t;
  warp_axis : Axis.t option;
}

type config =
  | Gemm_cfg of gemm_config
  | Fused_cfg of fused_config

type measured = {
  op_name : string;
  config : config;
  kernel : Gpu.Kernel.t;
  time : float;
  layouts : (string * Layout.t) list;
}

let bytes_per_elem = 2 (* FP16 storage *)

let iso_layout ~rep_dims ~target_dims layout =
  if List.length rep_dims <> List.length target_dims then
    invalid_arg "Config_space.iso_layout: rank mismatch";
  let mapping = List.combine (List.map fst rep_dims) (List.map fst target_dims) in
  List.map
    (fun a ->
      match List.assoc_opt a mapping with
      | Some b -> b
      | None -> invalid_arg ("Config_space.iso_layout: unknown axis " ^ a))
    layout

let clamp_eff e = Float.max 1e-3 (Float.min 0.95 e)

(* Deterministic +-6% perturbation keyed by a configuration string. *)
let perturb key =
  let bits = Prng.hash64 key in
  let unit_ =
    Int64.to_float (Int64.shift_right_logical bits 11) /. 9007199254740992.0
  in
  0.94 +. (0.12 *. unit_)

(* ------------------------------------------------------------------ *)
(* Tensor contractions                                                  *)
(* ------------------------------------------------------------------ *)

let roles_of (op : Ops.Op.t) =
  match op.kind with
  | Ops.Op.Gemm roles -> roles
  | Ops.Op.Map | Ops.Op.Reduce ->
      invalid_arg ("Config_space: not a contraction: " ^ op.name)

let gemm_dims program (roles : Ops.Op.gemm_roles) =
  let merge acc name =
    List.fold_left
      (fun acc (a, d) -> if List.mem_assoc a acc then acc else (a, d) :: acc)
      acc
      (Ops.Program.container_dims program name)
  in
  List.fold_left merge [] [ roles.a; roles.b; roles.c ]

(* Feasible layouts of one operand: its role blocks must each be contiguous
   and the batch block must not be innermost. Returns the layout together
   with whether the [cols] block is innermost (the "N" orientation). *)
let operand_layouts ~rows ~cols ~batch =
  let blocks =
    List.filter (fun (_, axes) -> axes <> [])
      [ (`Rows, rows); (`Cols, cols); (`Batch, batch) ]
  in
  let rec block_orders = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun b ->
            let rest = List.filter (fun b' -> fst b' <> fst b) l in
            List.map (fun o -> b :: o) (block_orders rest))
          l
  in
  let orders =
    List.filter
      (fun order ->
        match List.rev order with
        | (`Batch, _) :: _ -> false (* batch axes cannot be innermost *)
        | _ -> true)
      (block_orders blocks)
  in
  List.concat_map
    (fun order ->
      let rec expand = function
        | [] -> [ [] ]
        | (_, axes) :: rest ->
            let tails = expand rest in
            List.concat_map
              (fun perm -> List.map (fun t -> perm @ t) tails)
              (Layout.all axes)
      in
      let n_last =
        match List.rev order with
        | (`Cols, _) :: _ -> true
        | _ -> false
      in
      List.map (fun l -> (l, n_last)) (expand order))
    orders

let tc_eligible (m, n, k, _batch) = m mod 8 = 0 && n mod 8 = 0 && k mod 8 = 0

let gemm_configs program (op : Ops.Op.t) =
  let roles = roles_of op in
  let dims = gemm_dims program roles in
  let shape = Ops.Contraction.gemm_shape_of op ~dims in
  let a_layouts =
    operand_layouts ~rows:roles.m_axes ~cols:roles.k_axes ~batch:roles.batch_axes
  in
  let b_layouts =
    operand_layouts ~rows:roles.k_axes ~cols:roles.n_axes ~batch:roles.batch_axes
  in
  let c_layouts =
    operand_layouts ~rows:roles.m_axes ~cols:roles.n_axes ~batch:roles.batch_axes
  in
  let tcs = if tc_eligible shape then [ true; false ] else [ false ] in
  List.concat_map
    (fun (layout_a, a_n) ->
      List.concat_map
        (fun (layout_b, b_n) ->
          List.concat_map
            (fun (layout_c, _) ->
              List.concat_map
                (fun use_tc ->
                  List.map
                    (fun algo ->
                      {
                        layout_a;
                        layout_b;
                        layout_c;
                        ta = (if a_n then Gpu.Gemm_model.N else Gpu.Gemm_model.T);
                        tb = (if b_n then Gpu.Gemm_model.N else Gpu.Gemm_model.T);
                        use_tc;
                        algo;
                      })
                    Gpu.Gemm_model.algorithms)
                tcs)
            (List.map fst c_layouts |> List.map (fun l -> (l, ()))))
        b_layouts)
    a_layouts

let gemm_kernel ?(quality = 1.0) ~device program (op : Ops.Op.t) cfg =
  let roles = roles_of op in
  let dims = gemm_dims program roles in
  let m, n, k, batch = Ops.Contraction.gemm_shape_of op ~dims in
  let shape = { Gpu.Gemm_model.m; n; k; batch } in
  let stream_eff which layout transposed =
    clamp_eff
      (0.92
      *. (if transposed then 0.97 else 1.0)
      *. quality
      *. perturb (op.name ^ ":" ^ which ^ ":" ^ Layout.to_string layout))
  in
  let c_n_last =
    match cfg.layout_c with
    | [] -> true
    | l -> List.exists (Axis.equal (Layout.innermost l)) roles.n_axes
  in
  let eff_a = stream_eff "a" cfg.layout_a (cfg.ta = Gpu.Gemm_model.T) in
  let eff_b = stream_eff "b" cfg.layout_b (cfg.tb = Gpu.Gemm_model.T) in
  let eff_out =
    clamp_eff
      ((if c_n_last then 0.92 else 0.88)
      *. quality
      *. perturb (op.name ^ ":c:" ^ Layout.to_string cfg.layout_c))
  in
  Gpu.Gemm_model.kernel ~name:op.name shape ~ta:cfg.ta ~tb:cfg.tb
    ~use_tc:cfg.use_tc ~algo:cfg.algo ~eff_a ~eff_b ~eff_out ~bytes_per_elem
    device

(* ------------------------------------------------------------------ *)
(* Fused element-wise / normalization kernels                           *)
(* ------------------------------------------------------------------ *)

type group = {
  dir : Gpu.Kernel.direction;
  rep : string;
  rep_dims : (Axis.t * int) list;
  members : string list;
  volume : int;
}

let small_volume = 4096

let container_groups program (op : Ops.Op.t) =
  let mk dir names =
    let tagged =
      List.map (fun c -> (c, Ops.Program.container_dims program c)) names
    in
    let keys = Hashtbl.create 8 in
    List.iter
      (fun (c, dims) ->
        let key = (dir, List.map snd dims) in
        match Hashtbl.find_opt keys key with
        | Some (rep, rep_dims, members, vol) ->
            Hashtbl.replace keys key (rep, rep_dims, members @ [ c ], vol)
        | None ->
            let vol = List.fold_left (fun a (_, d) -> a * d) 1 dims in
            Hashtbl.replace keys key (c, dims, [ c ], vol))
      tagged;
    Hashtbl.fold
      (fun (dir, _) (rep, rep_dims, members, volume) acc ->
        { dir; rep; rep_dims; members; volume } :: acc)
      keys []
    |> List.sort (fun g1 g2 -> compare (g1.rep, g1.dir) (g2.rep, g2.dir))
  in
  mk Gpu.Kernel.Read op.reads @ mk Gpu.Kernel.Write op.writes

let fused_configs program (op : Ops.Op.t) =
  let groups = container_groups program op in
  let layout_choices g =
    if g.volume < small_volume then [ List.map fst g.rep_dims ]
    else Layout.all (List.map fst g.rep_dims)
  in
  let largest =
    List.fold_left
      (fun best g -> match best with
        | Some b when b.volume >= g.volume -> best
        | _ -> Some g)
      None groups
  in
  let vec_candidates =
    match largest with
    | Some g -> List.map fst g.rep_dims
    | None -> []
  in
  let warp_candidates =
    (* [None] with a reduction present means a grid-level (multi-block)
       reduction: full parallelism, but partial sums cost some bandwidth. *)
    let red = op.space.Ops.Iteration.reduction in
    if red = [] then [ None ] else None :: List.map (fun (a, _) -> Some a) red
  in
  let rec assign = function
    | [] -> [ [] ]
    | g :: rest ->
        let tails = assign rest in
        List.concat_map
          (fun l -> List.map (fun t -> (g.rep, l) :: t) tails)
          (layout_choices g)
  in
  List.concat_map
    (fun group_layouts ->
      List.concat_map
        (fun vec_axis ->
          List.map
            (fun warp_axis -> { group_layouts; vec_axis; warp_axis })
            warp_candidates)
        vec_candidates)
    (assign groups)

let pos_eff = function 0 -> 0.92 | 1 -> 0.40 | 2 -> 0.15 | _ -> 0.08

let class_factor (op : Ops.Op.t) =
  match op.cls with
  | Sdfg.Opclass.Normalization -> 0.82 (* two-loop reduction structure *)
  | Sdfg.Opclass.Elementwise -> 1.0
  | Sdfg.Opclass.Contraction -> 1.0

let fused_kernel ?(quality = 1.0) ~device program (op : Ops.Op.t) cfg =
  ignore device;
  let groups = container_groups program op in
  let layout_of_group g =
    match List.assoc_opt g.rep cfg.group_layouts with
    | Some l -> l
    | None -> List.map fst g.rep_dims
  in
  (* Position of the vectorization axis from the innermost, per group. *)
  let vec_pos g =
    let layout = layout_of_group g in
    match Layout.position layout cfg.vec_axis with
    | pos -> Some (List.length layout - 1 - pos)
    | exception Not_found -> None
  in
  let big g = g.volume >= small_volume in
  let nvec =
    List.fold_left
      (fun acc g ->
        if big g && vec_pos g = Some 0 then acc + List.length g.members
        else acc)
      0 groups
  in
  let reg_penalty = if nvec > 4 then 0.93 ** float_of_int (nvec - 4) else 1.0 in
  let has_red = Ops.Iteration.has_reduction op.space in
  (* Weight-gradient-style reductions produce few independent outputs (one
     warp per bias/gain element); when that undersubscribes the GPU, DRAM
     bandwidth cannot be saturated — the reason the paper's BSB/EBSB kernels
     sit far below peak (MUE 6-17 in Table III). *)
  let ind_volume =
    List.fold_left (fun a (_, d) -> a * d) 1 op.space.Ops.Iteration.independent
  in
  let parallelism, warp_factor =
    if not has_red then (1.0, 1.0)
    else
      match cfg.warp_axis with
      | None ->
          (* Grid-level reduction: every SM participates, but partial sums
             are exchanged through DRAM. *)
          (1.0, 0.75)
      | Some a ->
          (* Warp-level reduction: one warp per independent point; too few
             points undersubscribe the memory system (the paper's BSB/EBSB
             weight-gradient kernels, MUE 6-17). *)
          let threads = float_of_int (ind_volume * 32) in
          let parallelism =
            Float.max 0.12 (Float.min 1.0 (threads /. 131072.0))
          in
          let size =
            match List.assoc_opt a op.space.Ops.Iteration.reduction with
            | Some d -> d
            | None -> 0
          in
          let base = if size >= 32 then 1.0 else 0.45 in
          let warp = if Axis.equal a cfg.vec_axis then base *. 1.03 else base in
          (parallelism, warp)
  in
  let cls = class_factor op in
  let accesses =
    List.concat_map
      (fun g ->
        let eff =
          if not (big g) then clamp_eff (0.9 *. quality)
          else
            let p = match vec_pos g with Some p -> pos_eff p | None -> 0.40 in
            clamp_eff
              (p *. warp_factor *. reg_penalty *. parallelism *. cls *. quality
              *. perturb
                   (op.name ^ ":" ^ g.rep ^ ":"
                   ^ Layout.to_string (layout_of_group g)
                   ^ ":" ^ cfg.vec_axis))
        in
        List.map
          (fun c ->
            Gpu.Kernel.access ~bytes_per_elem ~efficiency:eff c g.dir
              (let dims = Ops.Program.container_dims program c in
               List.fold_left (fun a (_, d) -> a * d) 1 dims))
          g.members)
      groups
  in
  Gpu.Kernel.make ~name:op.name ~cls:op.cls ~flop:op.flop
    ~unit_:Gpu.Device.Fp16_simd ~compute_efficiency:0.55 accesses

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)
(* ------------------------------------------------------------------ *)

let configs program (op : Ops.Op.t) =
  match op.kind with
  | Ops.Op.Gemm _ -> List.map (fun c -> Gemm_cfg c) (gemm_configs program op)
  | Ops.Op.Map | Ops.Op.Reduce ->
      List.map (fun c -> Fused_cfg c) (fused_configs program op)

let resolve_layouts program (op : Ops.Op.t) config =
  match (config, op.kind) with
  | Gemm_cfg cfg, Ops.Op.Gemm roles ->
      let expand rep layout members =
        let rep_dims = Ops.Program.container_dims program rep in
        List.map
          (fun c ->
            let target_dims = Ops.Program.container_dims program c in
            (c, iso_layout ~rep_dims ~target_dims layout))
          members
      in
      expand roles.a cfg.layout_a roles.a_list
      @ expand roles.b cfg.layout_b roles.b_list
      @ expand roles.c cfg.layout_c roles.c_list
  | Fused_cfg cfg, (Ops.Op.Map | Ops.Op.Reduce) ->
      let groups = container_groups program op in
      List.concat_map
        (fun g ->
          let layout =
            match List.assoc_opt g.rep cfg.group_layouts with
            | Some l -> l
            | None -> List.map fst g.rep_dims
          in
          List.map
            (fun c ->
              let target_dims = Ops.Program.container_dims program c in
              (c, iso_layout ~rep_dims:g.rep_dims ~target_dims layout))
            g.members)
        groups
  | Gemm_cfg _, (Ops.Op.Map | Ops.Op.Reduce) | Fused_cfg _, Ops.Op.Gemm _ ->
      invalid_arg "Config_space.resolve_layouts: config kind mismatch"

let measure ?(quality = 1.0) ~device program (op : Ops.Op.t) config =
  let kernel =
    match config with
    | Gemm_cfg cfg -> gemm_kernel ~quality ~device program op cfg
    | Fused_cfg cfg -> fused_kernel ~quality ~device program op cfg
  in
  let timing = Gpu.Cost_model.time device kernel in
  {
    op_name = op.name;
    config;
    kernel;
    time = timing.Gpu.Cost_model.time;
    layouts = resolve_layouts program op config;
  }

(* Canonical identity string of a configuration: every knob, including the
   operand layouts (two GEMM configs can differ only in a layout). Keys the
   fault model's deterministic draws and the quarantine records. *)
let config_key = function
  | Gemm_cfg c ->
      Printf.sprintf "gemm|a=%s|b=%s|c=%s|ta=%s|tb=%s|tc=%b|algo=%d"
        (Layout.to_string c.layout_a)
        (Layout.to_string c.layout_b)
        (Layout.to_string c.layout_c)
        (Gpu.Gemm_model.transpose_to_string c.ta)
        (Gpu.Gemm_model.transpose_to_string c.tb)
        c.use_tc c.algo.Gpu.Gemm_model.algo_id
  | Fused_cfg c ->
      Printf.sprintf "fused|vec=%s|warp=%s|%s" c.vec_axis
        (match c.warp_axis with None -> "grid" | Some a -> a)
        (String.concat ";"
           (List.map
              (fun (rep, l) -> rep ^ "=" ^ Layout.to_string l)
              c.group_layouts))

type measure_error = {
  failed_op : string;
  failed_config : string;
  failure : Gpu.Faults.failure;
  attempt : int;
}

let measure_faulty ?quality ?(attempt = 0) ~faults ~device program
    (op : Ops.Op.t) config =
  let m = measure ?quality ~device program op config in
  if Gpu.Faults.is_clean faults then Ok m
  else
    let key = config_key config in
    match Gpu.Faults.inject faults ~op:op.name ~config:key ~attempt m.time with
    | Gpu.Faults.Measured time -> Ok { m with time }
    | Gpu.Faults.Failed failure ->
        Error { failed_op = op.name; failed_config = key; failure; attempt }

let measure_all ?quality ~device program op =
  List.map (measure ?quality ~device program op) (configs program op)

let default_config program (op : Ops.Op.t) =
  match op.kind with
  | Ops.Op.Gemm roles ->
      let natural name = List.map fst (Ops.Program.container_dims program name) in
      let dims = gemm_dims program roles in
      let m, n, k, batch = Ops.Contraction.gemm_shape_of op ~dims in
      let shape = (m, n, k, batch) in
      let gshape = { Gpu.Gemm_model.m; n; k; batch } in
      let flag layout cols =
        if cols <> [] && List.exists (Axis.equal (Layout.innermost layout)) cols
        then Gpu.Gemm_model.N
        else Gpu.Gemm_model.T
      in
      let layout_a = natural roles.a
      and layout_b = natural roles.b
      and layout_c = natural roles.c in
      Gemm_cfg
        {
          layout_a;
          layout_b;
          layout_c;
          ta = flag layout_a roles.k_axes;
          tb = flag layout_b roles.n_axes;
          use_tc = tc_eligible shape;
          algo = Gpu.Gemm_model.heuristic_algo ~use_tc:(tc_eligible shape) gshape;
        }
  | Ops.Op.Map | Ops.Op.Reduce ->
      let groups = container_groups program op in
      let group_layouts =
        List.map (fun g -> (g.rep, List.map fst g.rep_dims)) groups
      in
      let largest =
        List.fold_left
          (fun best g ->
            match best with
            | Some b when b.volume >= g.volume -> best
            | _ -> Some g)
          None groups
      in
      let vec_axis =
        match largest with
        | Some g -> Layout.innermost (List.map fst g.rep_dims)
        | None -> "i"
      in
      let warp_axis =
        match op.space.Ops.Iteration.reduction with
        | [] -> None
        | red ->
            (* prefer the largest reduction extent (warp-friendly) *)
            let a, _ =
              List.fold_left
                (fun (ba, bd) (a, d) -> if d > bd then (a, d) else (ba, bd))
                (List.hd red |> fun (a, d) -> (a, d))
                red
            in
            Some a
      in
      Fused_cfg { group_layouts; vec_axis; warp_axis }

let tuned_default_config ~device program (op : Ops.Op.t) =
  match (default_config program op, op.kind) with
  | Gemm_cfg cfg, Ops.Op.Gemm roles ->
      let dims = gemm_dims program roles in
      let m, n, k, batch = Ops.Contraction.gemm_shape_of op ~dims in
      let shape = { Gpu.Gemm_model.m; n; k; batch } in
      Gemm_cfg
        {
          cfg with
          algo =
            Gpu.Gemm_model.best_algo device ~use_tc:cfg.use_tc shape ~ta:cfg.ta
              ~tb:cfg.tb;
        }
  | config, _ -> config

type quarantined = {
  q_op : string;
  q_config : string;
  q_reason : string;
  q_attempts : int;
}

type sweep_stats = {
  measurements : int;
  retries : int;
  transient_failures : int;
  quarantined_configs : int;
  backoff_time : float;
  resumed_ops : int;
}

let zero_stats =
  {
    measurements = 0;
    retries = 0;
    transient_failures = 0;
    quarantined_configs = 0;
    backoff_time = 0.0;
    resumed_ops = 0;
  }

exception Interrupted of string

type t = {
  device : Gpu.Device.t;
  program : Ops.Program.t;
  table : (string, Config_space.measured list) Hashtbl.t;
  order : string list;
  quarantine : quarantined list;
  stats : sweep_stats;
}

(* ------------------------------------------------------------------ *)
(* Robust aggregation                                                   *)
(* ------------------------------------------------------------------ *)

let median = function
  | [] -> invalid_arg "Perfdb: median of an empty sample"
  | ts ->
      let arr = Array.of_list ts in
      Array.sort Float.compare arr;
      let n = Array.length arr in
      if n mod 2 = 1 then arr.(n / 2)
      else 0.5 *. (arr.((n / 2) - 1) +. arr.(n / 2))

(* Median of the samples surviving a 3-sigma MAD cut (sigma ~ 1.4826 * MAD
   for a gaussian). The median itself always survives, so the filtered
   sample is never empty. *)
let robust_time = function
  | [ t ] -> t
  | ts ->
      let med = median ts in
      let mad = median (List.map (fun t -> Float.abs (t -. med)) ts) in
      if mad = 0.0 then med
      else
        let cut = 3.0 *. 1.4826 *. mad in
        median (List.filter (fun t -> Float.abs (t -. med) <= cut) ts)

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                        *)
(* ------------------------------------------------------------------ *)

type checkpoint_payload =
  (string * Config_space.measured list) list * quarantined list * sweep_stats

let checkpoint_magic = "SUBSTATION-PERFDB-CKPT/1"

let fingerprint ?quality ~faults ~device (program : Ops.Program.t) =
  Printf.sprintf "%s|q=%s|f=%s|ops=%s" device.Gpu.Device.name
    (match quality with None -> "-" | Some q -> Printf.sprintf "%h" q)
    (Gpu.Faults.fingerprint faults)
    (String.concat ","
       (List.map (fun (o : Ops.Op.t) -> o.Ops.Op.name) program.Ops.Program.ops))

let save_checkpoint path fp (payload : checkpoint_payload) =
  Checkpointing.save ~path ~magic:checkpoint_magic ~fingerprint:fp payload

let load_checkpoint path fp : checkpoint_payload =
  Checkpointing.load ~run:"sweep" ~path ~magic:checkpoint_magic ~fingerprint:fp
    ~what:"Perfdb.build" ()

(* ------------------------------------------------------------------ *)
(* The sweep                                                            *)
(* ------------------------------------------------------------------ *)

type sweep_state = {
  mutable s_measurements : int;
  mutable s_retries : int;
  mutable s_transient : int;
  mutable s_quarantined : int;
  mutable s_backoff : float;
}

(* Per-config outcome plus the statistics the serial loop would have
   folded into [sweep_state] while measuring it. The caller replays these
   in ascending config order, so the merged stats — including the
   floating-point [backoff_time] sum, whose increments are re-added one at
   a time in their original occurrence order — are bitwise identical to a
   serial sweep at every domain count. *)
type config_outcome = {
  co_result : (Config_space.measured, quarantined) result;
  co_measurements : int;
  co_retries : int;
  co_transient : int;
  co_backoffs : float list;  (* increments, in occurrence order *)
}

(* Measure one configuration under faults: gather [repeats] successful
   samples, retrying each with exponential backoff for up to [max_retries]
   consecutive transient failures, then aggregate robustly. An [Error]
   result means the configuration is quarantined (permanent fault, or
   retries exhausted before any sample landed). Touches no shared state —
   the fault model draws are deterministic in (op, config, attempt) — so
   distinct configs can be measured concurrently. *)
let measure_config ?quality ~faults ~device ~max_retries ~repeats program op
    config =
  let samples = ref [] and proto = ref None in
  let attempt = ref 0 and consecutive = ref 0 in
  let quarantine = ref None in
  let measurements = ref 0 and retries = ref 0 and transient = ref 0 in
  let backoffs = ref [] in
  while
    !quarantine = None
    && List.length !samples < repeats
    && !consecutive <= max_retries
  do
    (match
       Config_space.measure_faulty ?quality ~attempt:!attempt ~faults ~device
         program op config
     with
    | Ok m ->
        if !proto = None then proto := Some m;
        samples := m.Config_space.time :: !samples;
        incr measurements;
        consecutive := 0
    | Error e when Gpu.Faults.is_transient e.Config_space.failure ->
        incr transient;
        incr retries;
        incr consecutive;
        backoffs := Gpu.Faults.backoff !consecutive :: !backoffs
    | Error e ->
        quarantine :=
          Some
            {
              q_op = e.Config_space.failed_op;
              q_config = e.Config_space.failed_config;
              q_reason = Gpu.Faults.failure_to_string e.Config_space.failure;
              q_attempts = !attempt + 1;
            });
    incr attempt
  done;
  let result =
    match (!quarantine, !proto) with
    | Some q, _ -> Error q
    | None, Some m when !samples <> [] ->
        Ok { m with Config_space.time = robust_time !samples }
    | None, _ ->
        Error
          {
            q_op = op.Ops.Op.name;
            q_config = Config_space.config_key config;
            q_reason =
              Printf.sprintf "%d consecutive transient failures (retries \
                              exhausted)"
                !consecutive;
            q_attempts = !attempt;
          }
  in
  {
    co_result = result;
    co_measurements = !measurements;
    co_retries = !retries;
    co_transient = !transient;
    co_backoffs = List.rev !backoffs;
  }

let apply_outcome st co =
  st.s_measurements <- st.s_measurements + co.co_measurements;
  st.s_retries <- st.s_retries + co.co_retries;
  st.s_transient <- st.s_transient + co.co_transient;
  (match co.co_result with
  | Error _ -> st.s_quarantined <- st.s_quarantined + 1
  | Ok _ -> ());
  List.iter (fun b -> st.s_backoff <- st.s_backoff +. b) co.co_backoffs

(* Fan [f] out over the configs on the {!Pool} workers (each config's
   measurement is independent and side-effect free) and reassemble results
   in ascending config order. Falls back to an inline loop when the pool
   is serial or the space is tiny. *)
let map_configs cfgs f =
  let ncfg = Array.length cfgs in
  let out = Array.make ncfg None in
  let run lo hi =
    for i = lo to hi - 1 do
      out.(i) <- Some (f cfgs.(i))
    done
  in
  if ncfg >= 2 && Pool.num_domains () > 1 then
    Pool.parallel_for ~start:0 ~finish:ncfg run
  else run 0 ncfg;
  out

let sweep_op ?quality ~faults ~device ~max_retries ~repeats st program op =
  let cfgs = Array.of_list (Config_space.configs program op) in
  if Gpu.Faults.is_clean faults then begin
    (* Clean measurements never retry: the parallel map is the same
       per-config computation [Config_space.measure_all] runs serially. *)
    let out =
      map_configs cfgs (Config_space.measure ?quality ~device program op)
    in
    let entries = List.filter_map Fun.id (Array.to_list out) in
    st.s_measurements <- st.s_measurements + List.length entries;
    (entries, [])
  end
  else begin
    let out =
      map_configs cfgs
        (measure_config ?quality ~faults ~device ~max_retries ~repeats program
           op)
    in
    let entries = ref [] and quarantined = ref [] in
    Array.iter
      (function
        | None -> ()
        | Some co -> (
            apply_outcome st co;
            match co.co_result with
            | Ok m -> entries := m :: !entries
            | Error q -> quarantined := q :: !quarantined))
      out;
    (List.rev !entries, List.rev !quarantined)
  end

let build ?quality ?(faults = Gpu.Faults.none) ?repeats ?(max_retries = 4)
    ?checkpoint ?interrupt_after ~device (program : Ops.Program.t) =
  let repeats =
    match repeats with
    | Some r when r >= 1 -> r
    | Some r -> invalid_arg (Printf.sprintf "Perfdb.build: repeats = %d < 1" r)
    | None -> if faults.Gpu.Faults.noise_sigma > 0.0 then 5 else 1
  in
  let fp = fingerprint ?quality ~faults ~device program in
  let resumed, quarantine0, stats0 =
    match checkpoint with
    | Some path when Sys.file_exists path -> load_checkpoint path fp
    | _ -> ([], [], zero_stats)
  in
  let st =
    {
      s_measurements = stats0.measurements;
      s_retries = stats0.retries;
      s_transient = stats0.transient_failures;
      s_quarantined = stats0.quarantined_configs;
      s_backoff = stats0.backoff_time;
    }
  in
  let table = Hashtbl.create 64 in
  List.iter (fun (name, es) -> Hashtbl.replace table name es) resumed;
  let completed = ref (List.rev resumed) in
  let quarantine = ref quarantine0 in
  let swept_this_run = ref 0 in
  let mk_stats () =
    {
      measurements = st.s_measurements;
      retries = st.s_retries;
      transient_failures = st.s_transient;
      quarantined_configs = st.s_quarantined;
      backoff_time = st.s_backoff;
      resumed_ops = List.length resumed;
    }
  in
  let order =
    List.map
      (fun (op : Ops.Op.t) ->
        if not (Hashtbl.mem table op.name) then begin
          let entries, quar =
            sweep_op ?quality ~faults ~device ~max_retries ~repeats st program
              op
          in
          Hashtbl.replace table op.name entries;
          quarantine := !quarantine @ quar;
          completed := (op.name, entries) :: !completed;
          (match checkpoint with
          | Some path ->
              save_checkpoint path fp (List.rev !completed, !quarantine, mk_stats ())
          | None -> ());
          incr swept_this_run;
          match interrupt_after with
          | Some n when !swept_this_run >= n ->
              raise (Interrupted (Option.value checkpoint ~default:""))
          | _ -> ()
        end;
        op.name)
      program.Ops.Program.ops
  in
  (* The sweep is complete: the checkpoint has served its purpose. *)
  (match checkpoint with
  | Some path when Sys.file_exists path -> (try Sys.remove path with Sys_error _ -> ())
  | _ -> ());
  { device; program; table; order; quarantine = !quarantine; stats = mk_stats () }

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let device t = t.device
let program t = t.program
let op_names t = t.order
let quarantine t = t.quarantine
let stats t = t.stats

let op_quarantine t name =
  List.filter (fun q -> q.q_op = name) t.quarantine

let entries_opt t name = Hashtbl.find_opt t.table name

let known_ops_hint t =
  match t.order with
  | [] -> "the database is empty"
  | names ->
      "known operators: " ^ String.concat ", " names
      ^ " (see Perfdb.op_names)"

let entries t name =
  match Hashtbl.find_opt t.table name with
  | Some es -> es
  | None ->
      invalid_arg
        (Printf.sprintf "Perfdb.entries: unknown operator %s; %s" name
           (known_ops_hint t))

let holes t =
  List.filter
    (fun name ->
      match Hashtbl.find_opt t.table name with
      | Some [] | None -> true
      | Some _ -> false)
    t.order

let complete t = holes t = []

let fastest = function
  | [] -> invalid_arg "Perfdb: empty entry list"
  | e :: rest ->
      List.fold_left
        (fun (best : Config_space.measured) (m : Config_space.measured) ->
          if m.time < best.time then m else best)
        e rest

let best t name =
  match entries t name with
  | [] ->
      invalid_arg
        (Printf.sprintf
           "Perfdb.best: operator %s has no surviving measurements (%d \
            configurations quarantined); use Perfdb.best_opt or the \
            degraded-mode Selector, or re-sweep with lower fault rates"
           name
           (List.length (op_quarantine t name)))
  | es -> fastest es

let best_opt t name =
  match entries_opt t name with
  | Some (_ :: _ as es) -> Some (fastest es)
  | Some [] | None -> None

let satisfies (m : Config_space.measured) constraints =
  List.for_all
    (fun (c, l) ->
      match List.assoc_opt c m.layouts with
      | None -> true
      | Some l' -> Layout.equal l l')
    constraints

let best_matching t name ~constraints =
  match List.filter (fun m -> satisfies m constraints) (entries t name) with
  | [] -> None
  | es -> Some (fastest es)

let violations (m : Config_space.measured) constraints =
  List.fold_left
    (fun acc (c, l) ->
      match List.assoc_opt c m.layouts with
      | Some l' when not (Layout.equal l l') -> acc + 1
      | _ -> acc)
    0 constraints

let nearest_matching t name ~constraints =
  match entries_opt t name with
  | None | Some [] -> None
  | Some es ->
      let scored =
        List.map (fun (m : Config_space.measured) -> (m, violations m constraints)) es
      in
      Some
        (List.fold_left
           (fun ((bm : Config_space.measured), bv) ((m : Config_space.measured), v) ->
             if v < bv || (v = bv && m.time < bm.time) then (m, v) else (bm, bv))
           (List.hd scored) (List.tl scored))

let punched t names =
  let table = Hashtbl.copy t.table in
  let q =
    List.map
      (fun name ->
        if not (Hashtbl.mem table name) then
          invalid_arg
            (Printf.sprintf "Perfdb.punched: unknown operator %s; %s" name
               (known_ops_hint t));
        Hashtbl.replace table name [];
        {
          q_op = name;
          q_config = "*";
          q_reason = "hole punched (Perfdb.punched)";
          q_attempts = 0;
        })
      names
  in
  { t with table; quarantine = t.quarantine @ q }

let sum_best t =
  List.fold_left
    (fun acc name ->
      match best_opt t name with
      | Some m -> acc +. m.Config_space.time
      | None -> acc)
    0.0 t.order

let quantiles t name ps =
  let times =
    List.sort Float.compare
      (List.map (fun (m : Config_space.measured) -> m.time) (entries t name))
  in
  let arr = Array.of_list times in
  let n = Array.length arr in
  List.map
    (fun p ->
      if n = 0 then nan
      else begin
        let idx = int_of_float (p *. float_of_int (n - 1)) in
        arr.(max 0 (min (n - 1) idx))
      end)
    ps

let config_fields (m : Config_space.measured) =
  match m.Config_space.config with
  | Config_space.Gemm_cfg c ->
      ( "gemm",
        Printf.sprintf "algo=%d;tc=%b;ta=%s;tb=%s" c.algo.Gpu.Gemm_model.algo_id
          c.use_tc
          (Gpu.Gemm_model.transpose_to_string c.ta)
          (Gpu.Gemm_model.transpose_to_string c.tb) )
  | Config_space.Fused_cfg c ->
      ( "fused",
        Printf.sprintf "vec=%s;warp=%s" c.vec_axis
          (match c.warp_axis with None -> "grid" | Some a -> a) )

let export_csv t =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "operator,kind,knobs,layouts,time_us\n";
  List.iter
    (fun name ->
      List.iter
        (fun (m : Config_space.measured) ->
          let kind, knobs = config_fields m in
          let layouts =
            String.concat ";"
              (List.map
                 (fun (c, l) -> c ^ "=" ^ Layout.to_string l)
                 m.Config_space.layouts)
          in
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%s,\"%s\",%.3f\n" name kind knobs layouts
               (m.Config_space.time *. 1e6)))
        (entries t name))
    t.order;
  Buffer.contents buf

let pp_stats ppf s =
  Format.fprintf ppf
    "%d measurements, %d retries (%d transient failures, %.3f s simulated \
     backoff), %d configurations quarantined, %d ops resumed from checkpoint"
    s.measurements s.retries s.transient_failures s.backoff_time
    s.quarantined_configs s.resumed_ops

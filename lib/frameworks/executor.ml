type workload = Encoder_layer | Mha_block

type plan = {
  name : string;
  program : Ops.Program.t;
  kernels_forward : Gpu.Kernel.t list;
  kernels_backward : Gpu.Kernel.t list;
  dispatch_overhead : float;
}

type report = {
  plan : plan;
  forward : Gpu.Simulator.run;
  backward : Gpu.Simulator.run;
  forward_time : float;
  backward_time : float;
}

let total_time r = r.forward_time +. r.backward_time

let launches kernels =
  List.fold_left (fun acc (k : Gpu.Kernel.t) -> acc + k.launches) 0 kernels

let time_plan device plan =
  let forward = Gpu.Simulator.run device plan.kernels_forward in
  let backward = Gpu.Simulator.run device plan.kernels_backward in
  {
    plan;
    forward;
    backward;
    forward_time =
      forward.Gpu.Simulator.total_time
      +. (plan.dispatch_overhead *. float_of_int (launches plan.kernels_forward));
    backward_time =
      backward.Gpu.Simulator.total_time
      +. (plan.dispatch_overhead *. float_of_int (launches plan.kernels_backward));
  }

type numeric_check = No_check | Check_nan | Check_finite

exception
  Numerical_fault of { fault_op : string; container : string; value : string }

let () =
  Printexc.register_printer (function
    | Numerical_fault { fault_op; container; value } ->
        Some
          (Printf.sprintf
             "Executor.Numerical_fault: operator %s wrote %s into container \
              %s; inspect that operator's inputs (upstream op or corrupted \
              input tensor) or rerun with ~check:No_check to bypass the guard"
             fault_op value container)
    | _ -> None)

let scan_container ~check env fault_op container =
  let data = Dense.unsafe_data (Ops.Op.lookup env container) in
  let n = Array.length data in
  let i = ref 0 in
  while !i < n do
    let v = Array.unsafe_get data !i in
    if Float.is_nan v then
      raise (Numerical_fault { fault_op; container; value = "NaN" });
    if check = Check_finite && not (Float.is_finite v) then
      raise (Numerical_fault { fault_op; container; value = "Inf" });
    incr i
  done

(* ------------------------------------------------------------------ *)
(* Resilience policy                                                    *)
(* ------------------------------------------------------------------ *)

type resilience = {
  deadline : float option;  (* whole-run wall-clock budget, s *)
  kernel_timeout : float option;  (* per guarded kernel launch, s *)
  retries : int;  (* op-level re-attempts on recoverable failure *)
  fallback : bool;  (* naive-oracle fallback on guarded failures *)
}

let default_resilience =
  { deadline = None; kernel_timeout = None; retries = 1; fallback = true }

type run_report = {
  rr_fallbacks : Guard.event list;
  rr_retried : (string * int) list;
  rr_quarantine : Guard.entry list;
  rr_elapsed : float;
}

let pp_run_report ppf r =
  Format.fprintf ppf "run-report{elapsed=%.3fs" r.rr_elapsed;
  if r.rr_fallbacks = [] && r.rr_retried = [] then
    Format.fprintf ppf " clean}"
  else begin
    List.iter
      (fun (e : Guard.event) ->
        Format.fprintf ppf "@ fallback:%s(%s)" e.Guard.e_kernel e.Guard.e_reason)
      r.rr_fallbacks;
    List.iter
      (fun (op, n) -> Format.fprintf ppf "@ retried:%s(x%d)" op n)
      r.rr_retried;
    Format.fprintf ppf "}"
  end

(* The per-op numerical scan, as a compiled-plan [check_op]. *)
let check_op_of check =
  match check with
  | No_check -> None
  | _ ->
      Some
        (fun (op : Ops.Op.t) env ->
          List.iter (scan_container ~check env op.Ops.Op.name) op.Ops.Op.writes)

(* The retry loop rides the compiled executor's [wrap_op] hook: each
   attempt re-runs the op body plus its numerical scan. A fresh attempt
   sees fresh fault draws (the injector's per-kernel instance counters
   advance), so transient failures clear on retry exactly as real ones
   would. *)
let retrying ~retries retried (op : Ops.Op.t) body =
  let rec attempt n =
    match body () with
    | () -> ()
    | exception Pool.Cancelled -> raise Pool.Cancelled
    | exception (Pool.Deadline_exceeded _ as e) ->
        (* The kernel guard already absorbed per-kernel timeouts; one
           that reaches the op loop is the run deadline. *)
        raise e
    | exception _ when n < retries ->
        Hashtbl.replace retried op.Ops.Op.name (n + 1);
        attempt (n + 1)
  in
  attempt 0

let run ?(check = Check_nan) ?resilience regime plan inputs =
  let cplan = Compile.Compiled.compile regime plan.program in
  let check_op = check_op_of check in
  let retried : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let interpret () =
    match resilience with
    | None -> Compile.Compiled.execute ?check_op cplan inputs
    | Some r ->
        let go () =
          Compile.Compiled.execute ?check_op
            ~wrap_op:(retrying ~retries:r.retries retried)
            cplan inputs
        in
        Guard.with_fallback r.fallback (fun () ->
            Guard.with_kernel_timeout r.kernel_timeout (fun () ->
                match r.deadline with
                | None -> go ()
                | Some d -> Pool.with_deadline ~scope:("run:" ^ plan.name) d go))
  in
  let t0 = Pool.now () in
  let env, fallbacks = Guard.with_recording interpret in
  let report =
    {
      rr_fallbacks = fallbacks;
      rr_retried =
        List.sort compare
          (Hashtbl.fold (fun op n acc -> (op, n) :: acc) retried []);
      rr_quarantine = Guard.quarantine ();
      rr_elapsed = Pool.now () -. t0;
    }
  in
  (env, report)

let default_kernels ?quality ~device program ops =
  List.map
    (fun (op : Ops.Op.t) ->
      let config = Substation.Config_space.default_config program op in
      (Substation.Config_space.measure ?quality ~device program op config)
        .Substation.Config_space.kernel)
    ops

let workload_to_string = function
  | Encoder_layer -> "BERT encoder layer"
  | Mha_block -> "multi-head attention"

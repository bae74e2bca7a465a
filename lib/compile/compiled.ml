(* First-class compiled plans: the pass manager, the verified lowering,
   the LRU plan cache, and the single executor every consumer
   (Executor.run, Transformer.Model, Serve, the CLI) funnels through. *)

type plan = {
  source : Ops.Program.t;
  program : Ops.Program.t;  (* after the pipeline *)
  regime : Regime.t;
  fingerprint : string;
  cache_key : string;
  trace : Pass.stat list;
  memplan : Ops.Memplan.t option;
  attn_sites : Substation.Fusion.attn_site list;
  stages : (string * Ops.Program.t) list;  (* with ~keep_stages *)
  verified : bool;
}

exception
  Verification_failed of { vf_pass : string; vf_container : string }

let () =
  Printexc.register_printer (function
    | Verification_failed { vf_pass; vf_container } ->
        Some
          (Printf.sprintf
             "Compile.Verification_failed: pass %s changed container %s \
              (not bitwise equal to the uncompiled interpreter)"
             vf_pass vf_container)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Counters and the LRU plan cache                                     *)
(* ------------------------------------------------------------------ *)

(* Global pass-execution counter: tests assert a cache hit re-runs
   exactly zero passes. *)
let pass_runs_counter = ref 0
let pass_runs () = !pass_runs_counter

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  compiles : int;
}

let cache : (string, plan) Lru.t = Lru.create 32
let compiles = ref 0

let cache_stats () =
  {
    hits = Lru.hits cache;
    misses = Lru.misses cache;
    evictions = Lru.evictions cache;
    compiles = !compiles;
  }

let clear_cache () = Lru.clear cache

(* Kept only for perfbench: a plan holds container names, not values, and
   no weight image is cached anywhere, so an in-place weight update needs
   nothing. *)
let invalidate_weights (_ : Dense.t list) = ()

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let execute ?check_op ?wrap_op (plan : plan) inputs =
  let wrap op body = match wrap_op with Some w -> w op body | None -> body () in
  match plan.memplan with
  | Some mp -> Ops.Memplan.execute ?check_op ?wrap_op mp inputs
  | None ->
      let env = Ops.Op.env_of_list inputs in
      List.iter
        (fun (op : Ops.Op.t) ->
          wrap op (fun () ->
              op.Ops.Op.run env;
              match check_op with Some f -> f op env | None -> ()))
        plan.program.Ops.Program.ops;
      env

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

(* Deterministic inputs for the verification runs: one seeded stream per
   pinned input container (read before written). *)
let synth_inputs (p : Ops.Program.t) =
  let written = Hashtbl.create 32 and chosen = Hashtbl.create 32 in
  let inputs = ref [] in
  List.iter
    (fun (o : Ops.Op.t) ->
      List.iter
        (fun c ->
          if (not (Hashtbl.mem written c)) && not (Hashtbl.mem chosen c) then begin
            Hashtbl.replace chosen c ();
            inputs := c :: !inputs
          end)
        o.reads;
      List.iter (fun c -> Hashtbl.replace written c ()) o.writes)
    p.Ops.Program.ops;
  List.rev_map
    (fun c ->
      let dims = Ops.Program.container_dims p c in
      (c, Dense.rand (Prng.of_key 0x5EEDC0DEL c) dims ~lo:(-1.0) ~hi:1.0))
    !inputs

let bitwise_equal a b =
  Dense.volume a = Dense.volume b
  &&
  try
    Dense.iter a (fun idx v ->
        if
          Int64.bits_of_float v <> Int64.bits_of_float (Dense.get b idx)
        then raise Exit);
    true
  with Exit | Invalid_argument _ | Not_found -> false

let verify_stage ~pass_name ~reference ~outputs plan inputs =
  let env = execute plan inputs in
  List.iter
    (fun c ->
      match Hashtbl.find_opt env c with
      | None -> raise (Verification_failed { vf_pass = pass_name; vf_container = c })
      | Some _ -> ())
    outputs;
  Hashtbl.iter
    (fun c ref_t ->
      match Hashtbl.find_opt env c with
      | Some got when not (bitwise_equal ref_t got) ->
          raise (Verification_failed { vf_pass = pass_name; vf_container = c })
      | _ -> ())
    reference

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* The name table decides the fused ops' names, so it keys the plan too. *)
let cache_key_of ~fingerprint ~regime ~name_table =
  let digest s = Digest.to_hex (Digest.string s) in
  let names =
    List.map
      (fun (members, name) -> String.concat "+" members ^ "=" ^ name)
      name_table
  in
  fingerprint ^ "|" ^ Regime.key regime ^ "|names:"
  ^ digest (String.concat "," names)

let build ~name_table ~verify ?verify_inputs ~keep_stages ~fingerprint
    ~cache_key regime source =
  incr compiles;
  let ctx = Pass.make_ctx ~name_table regime in
  let interim ~program ~trace ~stages =
    {
      source;
      program;
      regime;
      fingerprint;
      cache_key;
      trace = List.rev trace;
      memplan = ctx.Pass.memplan;
      attn_sites = ctx.Pass.attn_sites;
      stages = List.rev stages;
      verified = false;
    }
  in
  let reference_and_inputs =
    if not verify then None
    else begin
      let inputs =
        match verify_inputs with
        | Some i -> i
        | None -> synth_inputs source
      in
      (* The uncompiled interpreter is the verification oracle: the source
         program run op-for-op under the ambient backend mode. *)
      let snapshot = Hashtbl.copy (Ops.Program.run source inputs) in
      let outputs = Passes.live_out ~keep:regime.Regime.keep source in
      Some (snapshot, outputs, inputs)
    end
  in
  let program, trace, stages =
    List.fold_left
      (fun (p, trace, stages) (pass : Pass.t) ->
        if not (pass.p_enabled ctx) then (p, trace, stages)
        else begin
          ctx.Pass.note <- "";
          let before = List.length p.Ops.Program.ops in
          let t0 = Pool.now () in
          let p' = pass.p_rewrite ctx p in
          let elapsed = Pool.now () -. t0 in
          incr pass_runs_counter;
          let stat =
            {
              Pass.st_pass = pass.p_name;
              st_ops_before = before;
              st_ops_after = List.length p'.Ops.Program.ops;
              st_peak_floats =
                (match ctx.Pass.peak_override with
                | Some n -> n
                | None -> Pass.naive_peak_floats p');
              st_elapsed = elapsed;
              st_note = ctx.Pass.note;
            }
          in
          let stages =
            if keep_stages then (pass.p_name, p') :: stages else stages
          in
          (match reference_and_inputs with
          | Some (reference, outputs, inputs) ->
              verify_stage ~pass_name:pass.p_name ~reference ~outputs
                (interim ~program:p' ~trace:(stat :: trace) ~stages)
                inputs
          | None -> ());
          (p', stat :: trace, stages)
        end)
      (source, [], []) Passes.pipeline
  in
  let plan = interim ~program ~trace ~stages in
  { plan with verified = verify }

let compile ?device:_ ?(name_table = []) ?params:_ ?(verify = false)
    ?verify_inputs ?(keep_stages = false) regime program =
  let fingerprint = Fingerprint.of_program program in
  let cache_key = cache_key_of ~fingerprint ~regime ~name_table in
  match if verify then None else Lru.find cache cache_key with
  | Some plan -> plan
  | None ->
      let plan =
        build ~name_table ~verify ?verify_inputs ~keep_stages
          ~fingerprint ~cache_key regime program
      in
      Lru.add cache cache_key plan;
      plan

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_trace ppf (plan : plan) =
  Format.fprintf ppf "plan %s  regime[%s]%s@." (String.sub plan.fingerprint 0 12)
    (Regime.key plan.regime)
    (if plan.verified then "  verified" else "");
  List.iter (fun s -> Format.fprintf ppf "  %a@." Pass.pp_stat s) plan.trace

let trace_to_string plan = Format.asprintf "%a" pp_trace plan

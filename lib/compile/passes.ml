(* The standard lowering pipeline.

   Order note vs the issue text: attention windowing runs BEFORE the
   generic fusion engine. Window recognition matches the raw [Op.sem]
   chains (qkt / softmax / dropout / gamma and the six backward mirrors);
   generic fusion erases [sem] on the groups it builds, so running it
   first would destroy the patterns. The fused attention ops carry
   [cls = Contraction], which the generic engine treats as a barrier, so
   `attention_window |> fusion` reproduces exactly the one-shot
   [Fusion.fuse ~attention:true] rewrite. *)

(* ------------------------------------------------------------------ *)
(* canonicalize                                                        *)
(* ------------------------------------------------------------------ *)

let canonicalize =
  {
    Pass.p_name = "canonicalize";
    p_enabled = (fun _ -> true);
    p_rewrite =
      (fun ctx p ->
        (match Ops.Program.validate p with
        | Ok () -> ()
        | Error msg -> invalid_arg ("Compile.canonicalize: " ^ msg));
        let referenced = Hashtbl.create 64 in
        List.iter
          (fun (o : Ops.Op.t) ->
            List.iter
              (fun c -> Hashtbl.replace referenced c ())
              (o.reads @ o.writes))
          p.Ops.Program.ops;
        let kept, dropped =
          List.partition (fun (c, _) -> Hashtbl.mem referenced c)
            p.Ops.Program.containers
        in
        if dropped <> [] then
          ctx.Pass.note <-
            Printf.sprintf "dropped %d unused container decl(s)"
              (List.length dropped);
        { p with Ops.Program.containers = kept });
  }

(* ------------------------------------------------------------------ *)
(* dead-code elimination + conservative CSE                            *)
(* ------------------------------------------------------------------ *)

(* Live-out set: the caller's keep list plus every container that is
   written but never read by any op (escaping outputs — the same
   convention Memplan uses). With an empty keep list this is maximally
   conservative: only ops whose every output is overwritten before any
   read can die. *)
let live_out ~keep (p : Ops.Program.t) =
  let read = Hashtbl.create 64 and written = Hashtbl.create 64 in
  List.iter
    (fun (o : Ops.Op.t) ->
      List.iter (fun c -> Hashtbl.replace read c ()) o.reads;
      List.iter (fun c -> Hashtbl.replace written c ()) o.writes)
    p.Ops.Program.ops;
  let escaping =
    Hashtbl.fold
      (fun c () acc -> if Hashtbl.mem read c then acc else c :: acc)
      written []
  in
  keep @ escaping

let eliminate_dead ~keep (p : Ops.Program.t) =
  let live = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace live c ()) (live_out ~keep p);
  let rec go acc = function
    | [] -> acc
    | (op : Ops.Op.t) :: rest ->
        if List.exists (fun w -> Hashtbl.mem live w) op.writes then begin
          List.iter (fun w -> Hashtbl.remove live w) op.writes;
          List.iter (fun r -> Hashtbl.replace live r ()) op.reads;
          go (op :: acc) rest
        end
        else go acc rest
  in
  go [] (List.rev p.Ops.Program.ops)

let copy_op ~name ~src ~dst ~dims ~backward =
  {
    Ops.Op.name;
    cls = Sdfg.Opclass.Elementwise;
    reads = [ src ];
    writes = [ dst ];
    space = Ops.Iteration.pure_map dims;
    flop = 0;
    kind = Ops.Op.Map;
    run =
      (fun env ->
        Ops.Op.store env dst (Dense.copy (Ops.Op.lookup env src)));
    backward;
    vjp = None;
    sem =
      Some
        (Ops.Op.Elt
           {
             e_x = src;
             e_operand = None;
             e_out = dst;
             e_mask = None;
             e_dims = dims;
             e_fn = Ops.Op.Copy;
           });
  }

(* Conservative CSE over declared contractions: a later op whose
   (spec, input versions, scale) match an earlier one — with the earlier
   output still holding that value — degrades to a copy, which the memory
   planner downstream can alias away entirely. Versions track writes, so
   rebinding any input (or the earlier output) kills the candidate. *)
let cse (p : Ops.Program.t) =
  let replaced = ref 0 in
  let version = Hashtbl.create 64 in
  let ver c = Option.value (Hashtbl.find_opt version c) ~default:0 in
  let bump c = Hashtbl.replace version c (ver c + 1) in
  let seen = Hashtbl.create 64 in
  let ops =
    List.map
      (fun (op : Ops.Op.t) ->
        match op.sem with
        | Some (Ops.Op.Contract c) when op.writes = [ c.c_out ] -> begin
            let key =
              Printf.sprintf "%s|%s|%h" c.c_spec
                (String.concat ","
                   (List.map
                      (fun i -> Printf.sprintf "%s@%d" i (ver i))
                      c.c_inputs))
                c.c_scale
            in
            match Hashtbl.find_opt seen key with
            | Some (src, sv) when ver src = sv && not (String.equal src c.c_out)
              ->
                incr replaced;
                bump c.c_out;
                copy_op ~name:(op.name ^ ".cse") ~src ~dst:c.c_out
                  ~dims:(Ops.Program.container_dims p c.c_out)
                  ~backward:op.backward
            | _ ->
                bump c.c_out;
                Hashtbl.replace seen key (c.c_out, ver c.c_out);
                op
          end
        | _ ->
            List.iter bump op.writes;
            op)
      p.Ops.Program.ops
  in
  (ops, !replaced)

let dce_cse =
  {
    Pass.p_name = "dce-cse";
    p_enabled = (fun _ -> true);
    p_rewrite =
      (fun ctx p ->
        let before = List.length p.Ops.Program.ops in
        let kept = eliminate_dead ~keep:ctx.Pass.regime.Regime.keep p in
        let p = Ops.Program.replace_ops p kept in
        let ops, csed = cse p in
        let p = Ops.Program.replace_ops p ops in
        let dead = before - List.length kept in
        if dead > 0 || csed > 0 then
          ctx.Pass.note <-
            Printf.sprintf "%d dead op(s) removed, %d contraction(s) deduped"
              dead csed;
        p);
  }

(* ------------------------------------------------------------------ *)
(* attention windowing                                                 *)
(* ------------------------------------------------------------------ *)

let attention_window =
  {
    Pass.p_name = "attention-window";
    p_enabled = (fun ctx -> ctx.Pass.regime.Regime.attention);
    p_rewrite =
      (fun ctx p ->
        let p', sites =
          Substation.Fusion.prefuse_attention ~name_table:ctx.Pass.name_table
            ~keep:ctx.Pass.regime.Regime.keep p
        in
        ctx.Pass.attn_sites <- sites;
        if sites <> [] then
          ctx.Pass.note <-
            Printf.sprintf "%d streaming window(s)" (List.length sites);
        p');
  }

(* ------------------------------------------------------------------ *)
(* generic fusion                                                      *)
(* ------------------------------------------------------------------ *)

let fusion =
  {
    Pass.p_name = "fusion";
    p_enabled = (fun _ -> true);
    p_rewrite =
      (fun ctx p ->
        Substation.Fusion.fuse ~name_table:ctx.Pass.name_table
          ~keep:ctx.Pass.regime.Regime.keep p);
  }

(* ------------------------------------------------------------------ *)
(* memory planning                                                     *)
(* ------------------------------------------------------------------ *)

let memory_plan =
  {
    Pass.p_name = "memory-plan";
    p_enabled = (fun _ -> true);
    p_rewrite =
      (fun ctx p ->
        let mp = Ops.Memplan.plan ~keep:ctx.Pass.regime.Regime.keep p in
        let st = Ops.Memplan.stats mp in
        ctx.Pass.memplan <- Some mp;
        ctx.Pass.peak_override <- Some st.Ops.Memplan.plan_peak_floats;
        ctx.Pass.note <-
          Printf.sprintf "peak %d -> %d floats" st.Ops.Memplan.naive_peak_floats
            st.Ops.Memplan.plan_peak_floats;
        p);
  }

(* The standard lowering order. *)
let pipeline =
  [
    canonicalize;
    dce_cse;
    attention_window;
    fusion;
    memory_plan;
  ]

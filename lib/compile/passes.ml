(* The four lowering passes, as plain functions. Each returns what it
   produced (the rewritten program, the window sites, the memory plan)
   and its trace note; [Compiled.build] runs them in order.

   Attention windowing runs BEFORE the generic fusion engine. Window
   recognition matches the raw [Op.sem] chains (qkt / softmax / dropout /
   gamma and the six backward mirrors); generic fusion erases [sem] on the
   groups it builds, so running it first would destroy the patterns. The
   fused attention ops carry [cls = Contraction], which the generic engine
   treats as a barrier, so [attention_window] then [fusion] reproduces
   exactly the one-shot [Fusion.fuse ~attention:true] rewrite. *)

let canonicalize (p : Ops.Program.t) =
  (match Ops.Program.validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Compile.canonicalize: " ^ msg));
  let referenced = Hashtbl.create 64 in
  List.iter
    (fun (o : Ops.Op.t) ->
      List.iter (fun c -> Hashtbl.replace referenced c ()) (o.reads @ o.writes))
    p.Ops.Program.ops;
  let kept, dropped =
    List.partition
      (fun (c, _) -> Hashtbl.mem referenced c)
      p.Ops.Program.containers
  in
  ( { p with Ops.Program.containers = kept },
    if dropped = [] then ""
    else
      Printf.sprintf "dropped %d unused container decl(s)" (List.length dropped)
  )

let attention_window ~name_table ~keep p =
  let p', sites = Substation.Fusion.prefuse_attention ~name_table ~keep p in
  ( (p', sites),
    if sites = [] then ""
    else Printf.sprintf "%d streaming window(s)" (List.length sites) )

let fusion ~name_table ~keep p =
  (Substation.Fusion.fuse ~name_table ~keep p, "")

let memory_plan ~keep p =
  let mp = Ops.Memplan.plan ~keep p in
  let st = Ops.Memplan.stats mp in
  ( mp,
    Printf.sprintf "peak %d -> %d floats" st.Ops.Memplan.naive_peak_floats
      st.Ops.Memplan.plan_peak_floats )

(* Live-out set: the caller's keep list plus every container that is
   written but never read by any op (escaping outputs — the same
   convention Memplan uses). *)
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

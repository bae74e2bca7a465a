(* Whole-program static memory planning.

   The functional interpreter ({!Program.run}) materializes a fresh tensor
   for every op and keeps every container in the environment until the run
   ends, so the resident set is the sum of every intermediate — far beyond
   what the dataflow needs. This module runs a lifetime analysis over a
   program (post-fusion), picks a topological schedule that keeps the live
   set small, and emits a placement plan: dead intermediates recycle a
   bounded pool of planner-owned slot buffers. Contractions write straight
   into their slot; every other op runs its own (guarded) closure and the
   freshly allocated output is adopted into the slot afterwards.

   Invariants that make planned execution bitwise-equal to the
   allocate-everything oracle:

   - The environment stays the source of truth: every op consumes exactly
     the tensors the oracle would, and every value is computed by the op's
     own closure or by the same einsum the op would call. Slots only
     decide *where* bytes land, never *what* they are.
   - Scheduling respects read-after-write, write-after-read, and
     write-after-write dependencies; ops are pure functions of their
     inputs (dropout masks draw from a per-op PRNG stream key), so any
     topological order computes identical values.
   - A fallible kernel never writes through a live tensor: contractions
     write into slot buffers nothing else holds (a guard fallback
     re-zeroes that private buffer and recomputes), and other ops allocate
     privately with adoption only after they succeed. *)

(* Environment keys that shadow a container under a suffix (e.g. the
   streaming-attention op stores per-row logsumexp under "<out>.lse").
   Removing a dead container also removes its sidecars so a planned run
   does not leak them. Producers register their suffix at module init. *)
let sidecars : string list ref = ref []

let register_sidecar suffix =
  if not (List.mem suffix !sidecars) then sidecars := suffix :: !sidecars

(* ------------------------------------------------------------------ *)
(* Plan representation                                                 *)
(* ------------------------------------------------------------------ *)

type dest =
  | Dslot of int  (* write into the slot's (recycled) buffer *)
  | Dfresh  (* escaping output: fresh allocation every run *)

type mode =
  | Opaque of (string * int) list
      (* run the op's own closure; adopt each (container, slot) output *)
  | Ccontract of { c : Op.contract_sem; out : dest }

type action = {
  act_op : Op.t;
  act_mode : mode;
  act_remove : string list;  (* containers dead after this op *)
}

type stats = {
  ops : int;
  containers : int;  (* materialized (written) containers *)
  naive_peak_floats : int;  (* allocate-everything resident set *)
  plan_peak_floats : int;  (* slab + escaping outputs: planned resident set *)
  live_peak_floats : int;  (* max simultaneously-named floats in the schedule *)
  slots : int;
  slab_floats : int;  (* total recycled slot storage *)
  placed : int;  (* contractions writing straight into slots *)
  adopted : int;  (* opaque ops with outputs adopted into slots *)
  inplace : int;  (* always 0: no op overwrites its input *)
  aliased : int;  (* always 0: no container aliases another *)
  reordered : bool;  (* schedule differs from program order *)
}

type t = {
  p_actions : action array;
  p_slot_sizes : int array;
  p_slots : float array option array;  (* runtime buffers, reused across runs *)
  p_stats : stats;
  p_busy : bool Atomic.t;
}

let stats t = t.p_stats

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let distinct names =
  List.rev
    (List.fold_left (fun acc c -> if List.mem c acc then acc else c :: acc) [] names)

type info = {
  vols : (string, int) Hashtbl.t;
  pinned : (string, unit) Hashtbl.t;  (* caller-owned inputs *)
  kept : (string, unit) Hashtbl.t;  (* outputs escaping to the caller *)
  written : string list;  (* every container some op writes, once *)
}

let analyze ?(keep = []) (p : Program.t) =
  let vols = Hashtbl.create 64 in
  List.iter
    (fun (name, dims) ->
      Hashtbl.replace vols name
        (List.fold_left (fun acc (_, d) -> acc * d) 1 dims))
    p.Program.containers;
  let pinned = Hashtbl.create 16 and kept = Hashtbl.create 16 in
  let written = Hashtbl.create 64 and read = Hashtbl.create 64 in
  (* pinned: read (or only ever read) before any write — the caller's
     inputs and parameters, never planner-owned *)
  List.iter
    (fun (op : Op.t) ->
      List.iter
        (fun c ->
          Hashtbl.replace read c ();
          if not (Hashtbl.mem written c) then Hashtbl.replace pinned c ())
        op.Op.reads;
      List.iter (fun c -> Hashtbl.replace written c ()) op.Op.writes)
    p.Program.ops;
  let written_once =
    distinct
      (List.concat_map (fun (op : Op.t) -> op.Op.writes) p.Program.ops)
  in
  (* kept: written but never read (terminal outputs), plus the caller's
     explicit keep-list; pinned wins over kept *)
  List.iter
    (fun c ->
      if (not (Hashtbl.mem read c)) && not (Hashtbl.mem pinned c) then
        Hashtbl.replace kept c ())
    written_once;
  List.iter
    (fun c -> if not (Hashtbl.mem pinned c) then Hashtbl.replace kept c ())
    keep;
  { vols; pinned; kept; written = written_once }

let vol info c = match Hashtbl.find_opt info.vols c with Some v -> v | None -> 0
let is_pinned info c = Hashtbl.mem info.pinned c
let is_kept info c = Hashtbl.mem info.kept c

(* Dependency edges over op indices: RAW (writer -> later readers until the
   next writer), WAW (writer -> next writer), WAR (reader -> next writer).
   Exactly the constraints hashtable-environment execution imposes. *)
let dependencies ops =
  let n = Array.length ops in
  let succs = Array.make n [] and indeg = Array.make n 0 in
  let add_edge a b =
    if a <> b then begin
      succs.(a) <- b :: succs.(a);
      indeg.(b) <- indeg.(b) + 1
    end
  in
  let last_writer : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let readers_since : (string, int list) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let op = ops.(i) in
    List.iter
      (fun c ->
        (match Hashtbl.find_opt last_writer c with
        | Some w -> add_edge w i
        | None -> ());
        Hashtbl.replace readers_since c
          (i :: (try Hashtbl.find readers_since c with Not_found -> [])))
      op.Op.reads;
    List.iter
      (fun c ->
        (match Hashtbl.find_opt last_writer c with
        | Some w -> add_edge w i
        | None -> ());
        List.iter
          (fun r -> add_edge r i)
          (try Hashtbl.find readers_since c with Not_found -> []);
        Hashtbl.replace last_writer c i;
        Hashtbl.replace readers_since c [])
      op.Op.writes
  done;
  (succs, indeg)

(* Greedy topological order minimizing the running live set: at each step
   pick the ready op with the smallest (floats allocated - floats freed),
   ties broken by original index (stability keeps the order deterministic
   and close to the program author's). *)
let greedy_order ops info =
  let n = Array.length ops in
  let succs, indeg = dependencies ops in
  let indeg = Array.copy indeg in
  let uses op = distinct (op.Op.reads @ op.Op.writes) in
  let remaining : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun op ->
      List.iter
        (fun c ->
          Hashtbl.replace remaining c
            (1 + (try Hashtbl.find remaining c with Not_found -> 0)))
        (uses op))
    ops;
  let live : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let scheduled = Array.make n false in
  let order = Array.make n 0 in
  let score j =
    let op = ops.(j) in
    let alloc =
      List.fold_left
        (fun acc c ->
          if is_pinned info c || Hashtbl.mem live c then acc else acc + vol info c)
        0
        (distinct op.Op.writes)
    in
    let freed =
      List.fold_left
        (fun acc c ->
          if
            (try Hashtbl.find remaining c with Not_found -> 0) = 1
            && (not (is_pinned info c))
            && not (is_kept info c)
          then acc + vol info c
          else acc)
        0 (uses op)
    in
    alloc - freed
  in
  for step = 0 to n - 1 do
    let best = ref (-1) and best_score = ref max_int in
    for j = 0 to n - 1 do
      if (not scheduled.(j)) && indeg.(j) = 0 then begin
        let s = score j in
        if s < !best_score then begin
          best := j;
          best_score := s
        end
      end
    done;
    let j = !best in
    assert (j >= 0);
    order.(step) <- j;
    scheduled.(j) <- true;
    List.iter (fun k -> indeg.(k) <- indeg.(k) - 1) succs.(j);
    let op = ops.(j) in
    List.iter
      (fun c -> if not (is_pinned info c) then Hashtbl.replace live c ())
      (distinct op.Op.writes);
    List.iter
      (fun c ->
        let r = (try Hashtbl.find remaining c with Not_found -> 1) - 1 in
        Hashtbl.replace remaining c r;
        if r = 0 && (not (is_pinned info c)) && not (is_kept info c) then
          Hashtbl.remove live c)
      (uses op)
  done;
  order

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

let contract_of (op : Op.t) =
  match op.Op.sem with
  | Some (Op.Contract c)
    when op.Op.writes = [ c.Op.c_out ]
         && List.for_all (fun i -> List.mem i op.Op.reads) c.Op.c_inputs ->
      Some c
  | _ -> None

let build_for_order (p : Program.t) info order =
  let ops = Array.of_list p.Program.ops in
  let n = Array.length ops in
  let pos_of = Array.make n 0 in
  Array.iteri (fun s j -> pos_of.(j) <- s) order;
  (* last schedule position using each container; pinned/kept never die *)
  let last_use : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun j op ->
      List.iter
        (fun c ->
          let prev = try Hashtbl.find last_use c with Not_found -> -1 in
          if pos_of.(j) > prev then Hashtbl.replace last_use c pos_of.(j))
        (op.Op.reads @ op.Op.writes))
    ops;
  (* slot allocator *)
  let slot_sizes = ref (Array.make 16 0) in
  let nslots = ref 0 in
  let new_slot size =
    if !nslots = Array.length !slot_sizes then begin
      let bigger = Array.make (2 * !nslots) 0 in
      Array.blit !slot_sizes 0 bigger 0 !nslots;
      slot_sizes := bigger
    end;
    !slot_sizes.(!nslots) <- size;
    incr nslots;
    !nslots - 1
  in
  let free_by_size : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let alloc_slot size =
    match Hashtbl.find_opt free_by_size size with
    | Some ({ contents = sid :: rest } as cell) ->
        cell := rest;
        sid
    | _ -> new_slot size
  in
  let release_slot sid =
    let size = !slot_sizes.(sid) in
    match Hashtbl.find_opt free_by_size size with
    | Some cell -> cell := sid :: !cell
    | None -> Hashtbl.add free_by_size size (ref [ sid ])
  in
  let slot_of : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let acquire c =
    match Hashtbl.find_opt slot_of c with
    | Some sid -> sid (* re-written container keeps its slot *)
    | None ->
        let sid = alloc_slot (vol info c) in
        Hashtbl.replace slot_of c sid;
        sid
  in
  (* live-float accounting (named tensors, not slab) *)
  let live = ref 0 and live_peak = ref 0 in
  let gain v =
    live := !live + v;
    if !live > !live_peak then live_peak := !live
  in
  let placed = ref 0 and adopted = ref 0 in
  let defined : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let first_def c =
    if Hashtbl.mem defined c then false
    else begin
      Hashtbl.replace defined c ();
      true
    end
  in
  let actions =
    Array.init n (fun i ->
        { act_op = ops.(i); act_mode = Opaque []; act_remove = [] })
  in
  for pos = 0 to n - 1 do
    let j = order.(pos) in
    let op = ops.(j) in
    let mode =
      match contract_of op with
      | Some c ->
          incr placed;
          Ccontract
            {
              c;
              out =
                (if is_kept info c.Op.c_out || is_pinned info c.Op.c_out then
                   Dfresh
                 else Dslot (acquire c.Op.c_out));
            }
      | None ->
          let adoptions =
            List.filter_map
              (fun c ->
                if is_kept info c || is_pinned info c then None
                else Some (c, acquire c))
              (distinct op.Op.writes)
          in
          if adoptions <> [] then incr adopted;
          Opaque adoptions
    in
    (* live accounting: every first write materializes its volume *)
    List.iter
      (fun c ->
        if (not (is_pinned info c)) && first_def c then gain (vol info c))
      (distinct op.Op.writes);
    (* frees *)
    let dying =
      List.filter
        (fun c ->
          (try Hashtbl.find last_use c with Not_found -> -1) = pos
          && (not (is_pinned info c))
          && not (is_kept info c))
        (distinct (op.Op.reads @ op.Op.writes))
    in
    List.iter
      (fun c ->
        live := !live - vol info c;
        match Hashtbl.find_opt slot_of c with
        | Some sid ->
            Hashtbl.remove slot_of c;
            release_slot sid
        | None -> ())
      dying;
    actions.(pos) <- { act_op = op; act_mode = mode; act_remove = dying }
  done;
  let slot_sizes = Array.sub !slot_sizes 0 !nslots in
  let slab = Array.fold_left ( + ) 0 slot_sizes in
  let naive_peak =
    List.fold_left (fun acc c -> acc + vol info c) 0 info.written
  in
  let kept_floats =
    List.fold_left
      (fun acc c -> if is_kept info c then acc + vol info c else acc)
      0 info.written
  in
  let stats =
    {
      ops = n;
      containers = List.length info.written;
      naive_peak_floats = naive_peak;
      plan_peak_floats = slab + kept_floats;
      live_peak_floats = !live_peak;
      slots = Array.length slot_sizes;
      slab_floats = slab;
      placed = !placed;
      adopted = !adopted;
      inplace = 0;
      aliased = 0;
      reordered = not (Array.for_all2 ( = ) order (Array.init n (fun i -> i)));
    }
  in
  (actions, slot_sizes, stats)

let plan ?keep (p : Program.t) =
  let ops = Array.of_list p.Program.ops in
  let n = Array.length ops in
  let info = analyze ?keep p in
  let identity = Array.init n (fun i -> i) in
  let candidates =
    if n > 1 then [ identity; greedy_order ops info ] else [ identity ]
  in
  let built =
    List.map (fun order -> build_for_order p info order) candidates
  in
  let best =
    List.fold_left
      (fun acc (b : action array * int array * stats) ->
        let _, _, s = b and _, _, sa = acc in
        if s.plan_peak_floats < sa.plan_peak_floats then b else acc)
      (List.hd built) (List.tl built)
  in
  let actions, slot_sizes, stats = best in
  Arena.record_plan ~plan_peak:stats.plan_peak_floats
    ~naive_peak:stats.naive_peak_floats;
  {
    p_actions = actions;
    p_slot_sizes = slot_sizes;
    p_slots = Array.make (Array.length slot_sizes) None;
    p_stats = stats;
    p_busy = Atomic.make false;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let materialize slots sizes sid =
  match slots.(sid) with
  | Some b when Array.length b = sizes.(sid) -> b
  | _ ->
      let b = Array.make sizes.(sid) 0.0 in
      slots.(sid) <- Some b;
      b

(* Adopt a freshly-allocated output into its slot (sizes must agree; a
   runtime shape surprise just skips the recycling, never correctness). *)
let adopt env slots sizes (c, sid) =
  match Hashtbl.find_opt env c with
  | Some t when Array.length (Dense.unsafe_data t) = sizes.(sid) ->
      slots.(sid) <- Some (Dense.unsafe_data t)
  | _ -> ()

let run_contract env slots sizes (c : Op.contract_sem) out_d =
  let ins = List.map (Op.lookup env) c.Op.c_inputs in
  let spec = Einsum.parse c.Op.c_spec in
  let axis_size a =
    let rec find = function
      | [] -> invalid_arg ("Memplan: contraction output axis not in inputs: " ^ a)
      | t :: rest ->
          if Shape.mem (Dense.shape t) a then Shape.size (Dense.shape t) a
          else find rest
    in
    find ins
  in
  let out_vol =
    List.fold_left (fun acc a -> acc * axis_size a) 1 spec.Einsum.result
  in
  let into =
    match out_d with
    | Dslot sid when sizes.(sid) = out_vol ->
        Some (materialize slots sizes sid)
    | _ -> None
  in
  let r = Einsum.contract ~scale:c.Op.c_scale ?into ins ~out:spec.Einsum.result in
  (match (out_d, into) with
  | Dslot sid, None when Array.length (Dense.unsafe_data r) = sizes.(sid) ->
      slots.(sid) <- Some (Dense.unsafe_data r)
  | _ -> ());
  Op.store env c.Op.c_out r

let execute_with slots t ?check_op ?wrap_op inputs =
  let sizes = t.p_slot_sizes in
  let env = Op.env_of_list inputs in
  Array.iter
    (fun act ->
      let body () =
        (match act.act_mode with
        | Opaque adoptions ->
            act.act_op.Op.run env;
            List.iter (adopt env slots sizes) adoptions
        | Ccontract { c; out } -> run_contract env slots sizes c out);
        match check_op with Some f -> f act.act_op env | None -> ()
      in
      (match wrap_op with Some w -> w act.act_op body | None -> body ());
      List.iter
        (fun c ->
          Hashtbl.remove env c;
          List.iter (fun suffix -> Hashtbl.remove env (c ^ suffix)) !sidecars)
        act.act_remove)
    t.p_actions;
  Arena.record_plan_run ();
  env

let execute ?check_op ?wrap_op t inputs =
  (* A plan's slot buffers are single-flight; a concurrent (or reentrant)
     execute of the same plan runs against private slots instead. *)
  if Atomic.compare_and_set t.p_busy false true then
    Fun.protect
      ~finally:(fun () -> Atomic.set t.p_busy false)
      (fun () -> execute_with t.p_slots t ?check_op ?wrap_op inputs)
  else
    execute_with (Array.map (fun _ -> None) t.p_slots) t ?check_op ?wrap_op
      inputs


type pattern =
  | Producer_consumer_map
  | Map_into_reduction
  | Reduction_into_map
  | Sibling
  | Warp_shared_reduction
  | Streaming_attention

let pattern_to_string = function
  | Producer_consumer_map -> "producer-consumer map chain"
  | Map_into_reduction -> "map feeding a reduction"
  | Reduction_into_map -> "reduction feeding a map"
  | Sibling -> "sibling operators (launch sharing)"
  | Warp_shared_reduction -> "warp-shared two-dimensional reduction (sink)"
  | Streaming_attention -> "streaming tiled attention (across contractions)"

type group = {
  members : Ops.Op.t list;
  fused : Ops.Op.t;
  steps : (string * pattern) list;
}

let is_barrier (op : Ops.Op.t) =
  Sdfg.Opclass.equal op.cls Sdfg.Opclass.Contraction

let external_reads _program members =
  let written = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  let reads = ref [] in
  List.iter
    (fun (op : Ops.Op.t) ->
      List.iter
        (fun c ->
          if not (Hashtbl.mem written c) && not (Hashtbl.mem seen c) then begin
            Hashtbl.add seen c ();
            reads := c :: !reads
          end)
        op.reads;
      List.iter (fun c -> Hashtbl.replace written c ()) op.writes)
    members;
  List.rev !reads

let external_writes ?(keep = []) (program : Ops.Program.t) members =
  let member_names = List.map (fun (m : Ops.Op.t) -> m.name) members in
  let is_member (o : Ops.Op.t) = List.mem o.name member_names in
  (* a kept container is read by the caller, outside every group *)
  let read_outside c =
    List.mem c keep
    || List.exists
         (fun (o : Ops.Op.t) -> (not (is_member o)) && List.mem c o.reads)
         program.Ops.Program.ops
  in
  let read_anywhere c =
    List.exists (fun (o : Ops.Op.t) -> List.mem c o.reads) program.Ops.Program.ops
  in
  let seen = Hashtbl.create 16 in
  let writes = ref [] in
  List.iter
    (fun (op : Ops.Op.t) ->
      List.iter
        (fun c ->
          if not (Hashtbl.mem seen c) && (read_outside c || not (read_anywhere c))
          then begin
            Hashtbl.add seen c ();
            writes := c :: !writes
          end)
        op.writes)
    members;
  List.rev !writes

(* --- grouping ------------------------------------------------------- *)

type item = Barrier of Ops.Op.t | Region of raw_group list

and raw_group = {
  ops : Ops.Op.t list;
  space : Ops.Iteration.t;
  steps : (string * pattern) list;
}

let multiset l = List.sort Stdlib.compare l

let shared_reduction (a : Ops.Iteration.t) (b : Ops.Iteration.t) =
  Ops.Iteration.has_reduction a
  && Ops.Iteration.has_reduction b
  && multiset (Ops.Iteration.reduction_sizes a)
     = multiset (Ops.Iteration.reduction_sizes b)

(* Space of a group formed by warp-sharing two reductions over the same
   extents (the BDRB case): independent dims are pooled, the shared
   reduction kept. *)
let sink_merge_space (target : Ops.Iteration.t) (sunk : Ops.Iteration.t) =
  let extra =
    List.filter
      (fun (a, _) -> not (List.mem_assoc a target.Ops.Iteration.independent))
      sunk.Ops.Iteration.independent
  in
  Ops.Iteration.make
    ~independent:(target.Ops.Iteration.independent @ extra)
    ~reduction:target.Ops.Iteration.reduction

(* The Fig. 3 pattern through which [op] joins a group. *)
let classify_join (group : raw_group) (op : Ops.Op.t) =
  let consumes =
    List.exists
      (fun (m : Ops.Op.t) -> List.exists (fun w -> List.mem w op.reads) m.writes)
      group.ops
  in
  if not consumes then Sibling
  else if Ops.Iteration.has_reduction op.space
          && not (Ops.Iteration.has_reduction group.space) then
    Map_into_reduction
  else if Ops.Iteration.has_reduction group.space
          && not (Ops.Iteration.has_reduction op.space) then
    Reduction_into_map
  else Producer_consumer_map

let group_region ops =
  let extend groups (op : Ops.Op.t) =
    match groups with
    | ({ ops = gops; space; steps } as g) :: rest -> begin
        match Ops.Iteration.merge ~a:space ~b:op.space with
        | Some merged ->
            {
              ops = gops @ [ op ];
              space = merged;
              steps = steps @ [ (op.name, classify_join g op) ];
            }
            :: rest
        | None -> { ops = [ op ]; space = op.space; steps = [] } :: groups
      end
    | [] -> [ { ops = [ op ]; space = op.space; steps = [] } ]
  in
  List.rev (List.fold_left extend [] ops)

let segment (ops : Ops.Op.t list) =
  let flush acc current =
    if current = [] then acc else Region (group_region (List.rev current)) :: acc
  in
  let rec go acc current last_backward = function
    | [] -> List.rev (flush acc current)
    | (op : Ops.Op.t) :: rest ->
        if is_barrier op then
          go (Barrier op :: flush acc current) [] op.backward rest
        else if op.backward <> last_backward && current <> [] then
          (* forward/backward boundary is a fusion barrier *)
          go (flush acc current) [ op ] op.backward rest
        else go acc (op :: current) op.backward rest
  in
  go [] [] false ops

let terminal_outputs (program : Ops.Program.t) (g : raw_group) =
  let reads_of_others =
    List.concat_map (fun (o : Ops.Op.t) -> o.reads) program.Ops.Program.ops
  in
  List.for_all
    (fun (op : Ops.Op.t) ->
      List.for_all (fun c -> not (List.mem c reads_of_others)) op.writes)
    g.ops

(* Move a trailing terminal-reduction group of each region into the first
   compatible group of the next region. *)
let sink program items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let next_region_index i =
    let rec find j =
      if j >= n then None
      else match arr.(j) with Region _ -> Some j | Barrier _ -> find (j + 1)
    in
    find (i + 1)
  in
  for i = 0 to n - 1 do
    match arr.(i) with
    | Barrier _ -> ()
    | Region groups -> begin
        match List.rev groups with
        | last :: _ when Ops.Iteration.has_reduction last.space
                         && terminal_outputs program last -> begin
            match next_region_index i with
            | None -> ()
            | Some j ->
                let target_groups =
                  match arr.(j) with Region g -> g | Barrier _ -> assert false
                in
                let sunk_steps g =
                  List.map (fun (o : Ops.Op.t) -> (o.name, Warp_shared_reduction)) last.ops
                  @ g.steps
                in
                let try_merge g =
                  match Ops.Iteration.merge ~a:g.space ~b:last.space with
                  | Some merged ->
                      Some
                        {
                          ops = last.ops @ g.ops;
                          space = merged;
                          steps = sunk_steps g;
                        }
                  | None ->
                      if shared_reduction g.space last.space then
                        Some
                          {
                            ops = last.ops @ g.ops;
                            space = sink_merge_space g.space last.space;
                            steps = sunk_steps g;
                          }
                      else None
                in
                let rec place acc = function
                  | [] -> None
                  | g :: rest -> begin
                      match try_merge g with
                      | Some merged ->
                          Some (List.rev_append acc (merged :: rest))
                      | None -> place (g :: acc) rest
                    end
                in
                (match place [] target_groups with
                | None -> ()
                | Some new_target ->
                    arr.(j) <- Region new_target;
                    let remaining = List.rev (List.tl (List.rev groups)) in
                    arr.(i) <- Region remaining)
          end
        | _ -> ()
      end
  done;
  Array.to_list arr

(* --- fused-operator construction ------------------------------------ *)

let canonical_name name_table members =
  let names = multiset (List.map (fun (o : Ops.Op.t) -> o.name) members) in
  let rec find = function
    | [] -> String.concat "+" (List.map (fun (o : Ops.Op.t) -> o.name) members)
    | (key, name) :: rest -> if multiset key = names then name else find rest
  in
  find name_table

(* The fused run body: single-pass compiled kernels when every member
   carries a semantic descriptor, sequential member replay (the naive
   oracle) otherwise. The compiled path runs under the kernel guard,
   which replays on the naive backend too: a crash, kernel timeout, or
   (at Nan/Finite level) non-finite external output re-executes the whole
   group through sequential replay — safe after a partial compiled run
   because every member stores its outputs as it goes, recomputing any
   intermediate the compiled kernel elided. Whichever path ran, the
   members' outputs that are not the group's writes leave the env
   afterwards: the memory plan never sees those names, so nothing else
   would free them, and the container set must not depend on the
   backend. *)
let fused_run ~kernel ~external_writes members =
  let internal =
    List.concat_map (fun (o : Ops.Op.t) -> o.writes) members
    |> List.filter (fun c -> not (List.mem c external_writes))
  in
  let sequential env = List.iter (fun (o : Ops.Op.t) -> o.run env) members in
  let compiled = Ops.Fastpath.compile_group ~external_writes members in
  fun env ->
    (match compiled with
    | Some compiled ->
        Guard.protected ~kernel
          ~outputs:(fun () ->
            List.filter_map
              (fun c -> Option.map Dense.unsafe_data (Hashtbl.find_opt env c))
              external_writes)
          ~fallback:(fun () -> sequential env)
          (fun () -> compiled env)
    | None -> sequential env);
    List.iter (Hashtbl.remove env) internal

let build_fused ~keep name_table program (g : raw_group) =
  match g.ops with
  | [ single ] ->
      (* Singleton non-contraction groups still become one custom kernel and
         may carry a canonical name (BSB, BAOB, BEI). *)
      let name = canonical_name name_table [ single ] in
      let writes = external_writes ~keep program [ single ] in
      let run = fused_run ~kernel:("fused." ^ name) ~external_writes:writes [ single ] in
      {
        members = [ single ];
        fused = { single with Ops.Op.name = name; run };
        steps = [];
      }
  | members ->
      let reads = external_reads program members in
      let writes = external_writes ~keep program members in
      let has_red = Ops.Iteration.has_reduction g.space in
      let name = canonical_name name_table members in
      let fused =
        {
          Ops.Op.name;
          cls =
            (if has_red then Sdfg.Opclass.Normalization
             else Sdfg.Opclass.Elementwise);
          reads;
          writes;
          space = g.space;
          flop = List.fold_left (fun acc (o : Ops.Op.t) -> acc + o.flop) 0 members;
          kind = (if has_red then Ops.Op.Reduce else Ops.Op.Map);
          run = fused_run ~kernel:("fused." ^ name) ~external_writes:writes members;
          backward = List.for_all (fun (o : Ops.Op.t) -> o.backward) members;
          (* differentiation is defined on the unfused program; fused
             kernels are a performance artifact *)
          vjp = None;
          sem = None;
        }
      in
      { members; fused; steps = g.steps }

(* --- streaming attention prefuse ------------------------------------ *)

(* Contractions are fusion barriers for the generic engine above, but the
   attention interior — qkt, softmax(+causal), dropout, gamma, and their
   six backward mirrors — is the one place the paper's data-movement
   accounting wants fusion ACROSS the barriers: the L x L score matrix is
   produced and consumed entirely inside the window, so a streaming kernel
   ({!Flashattn}) can elide it. The prefuser below recognizes those
   windows structurally (via [Op.sem]) in the paper's h/b/j/k/p/w axis
   convention and pins each as a single fused group; everything outside
   the windows flows through the generic engine unchanged. Opt-in
   ([?attention] on {!groups} / {!fuse}) because eliding the score
   containers changes which intermediates a fused program materializes. *)

type attn_window = {
  aw_fwd : Ops.Op.t list;  (* qkt; softmax; dropout; gamma *)
  aw_bwd : Ops.Op.t list;  (* their six backward mirrors; [] if fwd-only *)
  aw_q : string;
  aw_k : string;
  aw_v : string;
  aw_out : string;  (* gam *)
  aw_dout : string;  (* d_gam *)
  aw_dq : string;
  aw_dk : string;
  aw_dv : string;
  aw_alpha_sm : string;  (* softmax output, read by the softmax backward *)
  aw_internal : string list;  (* elided under the streaming kernel *)
  aw_prescale : float;
  aw_causal : bool;
  aw_dropout : Flashattn.dropout option;
}

let beta_order dims = List.map fst dims = [ "h"; "b"; "j"; "k" ]

let match_attn_fwd = function
  | (o1 : Ops.Op.t) :: o2 :: o3 :: (o4 : Ops.Op.t) :: _ -> begin
      match (o1.sem, o2.sem, o3.sem, o4.sem) with
      | ( Some (Ops.Op.Contract c1),
          Some (Ops.Op.Red (Ops.Op.Softmax r)),
          Some (Ops.Op.Elt e),
          Some (Ops.Op.Contract c2) )
        when String.equal c1.c_spec "phbk,phbj->hbjk"
             && String.equal c2.c_spec "whbk,hbjk->whbj"
             && c1.c_scale = 1.0 && c2.c_scale = 1.0
             && String.equal r.r_x c1.c_out
             && Axis.equal r.r_axis "k"
             && (match r.r_causal with
                | None -> true
                | Some (cq, ck) -> Axis.equal cq "j" && Axis.equal ck "k")
             && String.equal e.e_x r.r_out
             && e.e_mask <> None
             && (match e.e_fn with
                | Ops.Op.Dropout_gen d -> d.p = 0.0 || beta_order e.e_dims
                | _ -> false)
             && (match c2.c_inputs with
                | [ _; a ] -> String.equal a e.e_out
                | _ -> false)
             && (not o1.backward) && (not o2.backward) && (not o3.backward)
             && not o4.backward ->
          let mask = Option.get e.e_mask in
          let dropout =
            match e.e_fn with
            | Ops.Op.Dropout_gen d when d.p > 0.0 ->
                Some
                  { Flashattn.p = d.p; seed = d.seed; key = o3.name;
                    dims = e.e_dims }
            | _ -> None
          in
          Some
            ( [ o1; o2; o3; o4 ],
              {
                aw_fwd = [ o1; o2; o3; o4 ];
                aw_bwd = [];
                aw_q = List.nth c1.c_inputs 1;
                aw_k = List.nth c1.c_inputs 0;
                aw_v = List.nth c2.c_inputs 0;
                aw_out = c2.c_out;
                aw_dout = "";
                aw_dq = "";
                aw_dk = "";
                aw_dv = "";
                aw_alpha_sm = r.r_out;
                aw_internal = [ c1.c_out; r.r_out; mask; e.e_out ];
                aw_prescale = r.r_prescale;
                aw_causal = r.r_causal <> None;
                aw_dropout = dropout;
              },
              mask )
      | _ -> None
    end
  | _ -> None

let match_attn_bwd w ~mask = function
  | (b0 : Ops.Op.t) :: b1 :: b2 :: b3 :: b4 :: (b5 : Ops.Op.t) :: _ -> begin
      match (b0.sem, b1.sem, b2.sem, b3.sem, b4.sem, b5.sem) with
      | ( Some (Ops.Op.Contract g1),
          Some (Ops.Op.Contract g2),
          Some (Ops.Op.Elt e2),
          Some (Ops.Op.Red (Ops.Op.Softmax_dx sd)),
          Some (Ops.Op.Contract q1),
          Some (Ops.Op.Contract q2) )
        when String.equal g1.c_spec "whbk,whbj->hbjk"
             && String.equal g2.c_spec "hbjk,whbj->whbk"
             && String.equal q1.c_spec "phbk,hbjk->phbj"
             && String.equal q2.c_spec "phbj,hbjk->phbk"
             && g1.c_scale = 1.0 && g2.c_scale = 1.0 && q1.c_scale = 1.0
             && q2.c_scale = 1.0
             && g1.c_inputs = [ w.aw_v; List.nth g1.c_inputs 1 ]
             && g2.c_inputs = [ List.nth w.aw_internal 3; List.nth g1.c_inputs 1 ]
             && e2.e_fn = Ops.Op.Mul2
             && String.equal e2.e_x g1.c_out
             && e2.e_operand = Some mask
             && String.equal sd.sd_dy e2.e_out
             && String.equal sd.sd_y w.aw_alpha_sm
             && Axis.equal sd.sd_axis "k"
             && sd.sd_prescale = w.aw_prescale
             && q1.c_inputs = [ w.aw_k; sd.sd_out ]
             && q2.c_inputs = [ w.aw_q; sd.sd_out ]
             && b0.backward && b1.backward && b2.backward && b3.backward
             && b4.backward && b5.backward ->
          Some
            ( [ b0; b1; b2; b3; b4; b5 ],
              {
                w with
                aw_bwd = [ b0; b1; b2; b3; b4; b5 ];
                aw_dout = List.nth g1.c_inputs 1;
                aw_dq = q1.c_out;
                aw_dk = q2.c_out;
                aw_dv = g2.c_out;
                aw_internal =
                  w.aw_internal @ [ g1.c_out; e2.e_out; sd.sd_out ];
              } )
      | _ -> None
    end
  | _ -> None

(* The elided containers must be produced and consumed strictly inside the
   window pair: any outside reader or writer, or the caller keeping one,
   vetoes the prefuse. *)
let window_closed ~keep (program : Ops.Program.t) w =
  let inside (o : Ops.Op.t) =
    List.memq o w.aw_fwd || List.memq o w.aw_bwd
  in
  List.for_all
    (fun c ->
      (not (List.mem c keep))
      && List.for_all
        (fun (o : Ops.Op.t) ->
          inside o || ((not (List.mem c o.reads)) && not (List.mem c o.writes)))
        program.Ops.Program.ops)
    w.aw_internal

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let find_attention ~keep (program : Ops.Program.t) =
  let ops = program.Ops.Program.ops in
  let rec scan acc l =
    match l with
    | [] -> List.rev acc
    | _ :: rest -> begin
        match match_attn_fwd l with
        | Some (span, w, mask) -> scan ((w, mask) :: acc) (drop (List.length span) l)
        | None -> scan acc rest
      end
  in
  let pair (w, mask) =
    let rec seek l =
      match l with
      | [] -> w
      | _ :: rest -> begin
          match match_attn_bwd w ~mask l with
          | Some (_, w') -> w'
          | None -> seek rest
        end
    in
    seek ops
  in
  scan [] ops |> List.map pair |> List.filter (window_closed ~keep program)

let attn_steps members =
  List.map
    (fun (o : Ops.Op.t) -> (o.Ops.Op.name, Streaming_attention))
    (List.tl members)

(* The streaming forward is bitwise equal to the member chain it
   replaces. *)
let build_attn_fwd name_table w =
  let members = w.aw_fwd in
  let name = canonical_name name_table members in
  (* the replay drops the score-matrix containers the streaming kernel
     elides, so the env is the same on every path *)
  let seq env =
    List.iter (fun (o : Ops.Op.t) -> o.Ops.Op.run env) members;
    List.iter (Hashtbl.remove env) w.aw_internal
  in
  let run env =
    Guard.protected
      ~kernel:("fused." ^ name)
      ~outputs:(fun () ->
        List.filter_map
          (fun c -> Option.map Dense.unsafe_data (Hashtbl.find_opt env c))
          [ w.aw_out ])
      ~fallback:(fun () -> seq env)
      (fun () ->
        Ops.Op.store env w.aw_out
          (Flashattn.forward ~causal:w.aw_causal ?dropout:w.aw_dropout
             ~prescale:w.aw_prescale
             ~q:(Ops.Op.lookup env w.aw_q)
             ~k:(Ops.Op.lookup env w.aw_k)
             ~v:(Ops.Op.lookup env w.aw_v)
             ()))
  in
  let gamma = List.nth members 3 in
  let fused =
    {
      gamma with
      Ops.Op.name;
      reads = [ w.aw_k; w.aw_q; w.aw_v ];
      writes = [ w.aw_out ];
      flop = List.fold_left (fun acc (o : Ops.Op.t) -> acc + o.flop) 0 members;
      run;
      vjp = None;
      sem = None;
    }
  in
  { members; fused; steps = attn_steps members }

let build_attn_bwd name_table w =
  let members = w.aw_bwd in
  let name = canonical_name name_table members in
  (* the replay needs the score-matrix intermediates, which no forward
     path leaves in the env; recompute them by replaying the forward
     members up to the dropout (deterministic, so the values are the ones
     the forward computed; the last member would only re-store the
     window's output), then drop them again as the forward replay does *)
  let seq env =
    List.iteri
      (fun i (o : Ops.Op.t) -> if i < 3 then o.Ops.Op.run env)
      w.aw_fwd;
    List.iter (fun (o : Ops.Op.t) -> o.Ops.Op.run env) members;
    List.iter (Hashtbl.remove env) w.aw_internal
  in
  let run env =
    Guard.protected
      ~kernel:("fused." ^ name)
      ~outputs:(fun () ->
        List.filter_map
          (fun c -> Option.map Dense.unsafe_data (Hashtbl.find_opt env c))
          [ w.aw_dq; w.aw_dk; w.aw_dv ])
      ~fallback:(fun () -> seq env)
      (fun () ->
        let dq, dk, dv =
          Flashattn.backward ~causal:w.aw_causal ?dropout:w.aw_dropout
            ~prescale:w.aw_prescale
            ~q:(Ops.Op.lookup env w.aw_q)
            ~k:(Ops.Op.lookup env w.aw_k)
            ~v:(Ops.Op.lookup env w.aw_v)
            ~d_out:(Ops.Op.lookup env w.aw_dout)
            ()
        in
        Ops.Op.store env w.aw_dq dq;
        Ops.Op.store env w.aw_dk dk;
        Ops.Op.store env w.aw_dv dv)
  in
  let last = List.nth members 5 in
  let fused =
    {
      last with
      Ops.Op.name;
      reads = [ w.aw_v; w.aw_dout; w.aw_k; w.aw_q ];
      writes = [ w.aw_dq; w.aw_dk; w.aw_dv ];
      flop = List.fold_left (fun acc (o : Ops.Op.t) -> acc + o.flop) 0 members;
      run;
      vjp = None;
      sem = None;
    }
  in
  { members; fused; steps = attn_steps members }

(* --- entry points ---------------------------------------------------- *)

(* The op list cut at the recognized windows: runs of ordinary ops, and
   each window half as its streaming fused group. *)
let split_windows ~name_table windows ops =
  let spans =
    List.concat_map
      (fun w ->
        let fwd = `Window (build_attn_fwd name_table w, w, `Fwd) in
        (List.hd w.aw_fwd, List.length w.aw_fwd, fwd)
        ::
        (match w.aw_bwd with
        | [] -> []
        | b ->
            let bwd = `Window (build_attn_bwd name_table w, w, `Bwd) in
            [ (List.hd b, List.length b, bwd) ]))
      windows
  in
  let flush acc current =
    if current = [] then acc else `Ops (List.rev current) :: acc
  in
  let rec walk acc current = function
    | [] -> List.rev (flush acc current)
    | (op : Ops.Op.t) :: rest -> begin
        match List.find_opt (fun (h, _, _) -> h == op) spans with
        | Some (_, n, part) ->
            walk (part :: flush acc current) [] (drop (n - 1) rest)
        | None -> walk acc (op :: current) rest
      end
  in
  walk [] [] ops

let groups ?(name_table = []) ?(attention = false) ?(keep = [])
    (program : Ops.Program.t) =
  let windows = if attention then find_attention ~keep program else [] in
  let build = build_fused ~keep name_table program in
  split_windows ~name_table windows program.Ops.Program.ops
  |> List.concat_map (function
       | `Window (g, _, _) -> [ g ]
       | `Ops ops ->
           sink program (segment ops)
           |> List.concat_map (function
                | Barrier op -> [ { members = [ op ]; fused = op; steps = [] } ]
                | Region gs -> List.map build gs))

let fuse ?name_table ?attention ?keep program =
  let gs = groups ?name_table ?attention ?keep program in
  Ops.Program.replace_ops program (List.map (fun g -> g.fused) gs)

(* Staged variant for the compiler pipeline: replace ONLY the attention
   windows with their streaming fused ops, leaving every other operator
   untouched (the generic engine runs as a separate, later pass), and
   report where the windows are. Fused attention ops carry
   [cls = Contraction], so the generic engine downstream treats them as
   barriers and never re-fuses them. *)

type attn_site = {
  site_op : string;  (* fused op name *)
  site_kind : [ `Fwd | `Bwd ];
  site_writes : string list;  (* fwd: [out]; bwd: [dq; dk; dv] *)
  site_heads : int;
  site_batch : int;
  site_seq_q : int;
  site_seq_k : int;
  site_d_head : int;
  site_causal : bool;
}

let prefuse_attention ?(name_table = []) ?(keep = [])
    (program : Ops.Program.t) =
  let axis c a =
    match List.assoc_opt a (Ops.Program.container_dims program c) with
    | Some n -> n
    | None -> 0
  in
  let parts =
    split_windows ~name_table (find_attention ~keep program)
      program.Ops.Program.ops
  in
  let site = function
    | `Ops _ -> None
    | `Window (g, w, kind) ->
        Some
          {
            site_op = g.fused.Ops.Op.name;
            site_kind = kind;
            site_writes = g.fused.Ops.Op.writes;
            site_heads = axis w.aw_q "h";
            site_batch = axis w.aw_q "b";
            site_seq_q = axis w.aw_q "j";
            site_seq_k = axis w.aw_k "k";
            site_d_head = axis w.aw_q "p";
            site_causal = w.aw_causal;
          }
  in
  ( Ops.Program.replace_ops program
      (List.concat_map
         (function `Ops ops -> ops | `Window (g, _, _) -> [ g.fused ])
         parts),
    List.filter_map site parts )

let movement_saved ~bytes_per_elem (program : Ops.Program.t) =
  let graph = Ops.Program.graph program in
  let unfused =
    List.fold_left
      (fun acc op -> acc + Sdfg.Graph.io_elements graph (Ops.Op.to_graph_op op))
      0 program.Ops.Program.ops
  in
  let volume c = Sdfg.Graph.volume_of graph c in
  let fused =
    List.fold_left
      (fun acc g ->
        let reads = external_reads program g.members in
        let writes = external_writes program g.members in
        acc
        + List.fold_left (fun a c -> a + volume c) 0 reads
        + List.fold_left (fun a c -> a + volume c) 0 writes)
      0 (groups program)
  in
  (unfused * bytes_per_elem, fused * bytes_per_elem)

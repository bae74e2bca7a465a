type part = {
  spec : string;
  inputs : string list;
  output : string;
  renames : (string * (Axis.t * Axis.t) list) list;
}

type group_role = Group_m | Group_n | Group_k

let part ?(renames = []) ~spec ~inputs ~output () =
  { spec; inputs; output; renames }

let prod dims axes =
  List.fold_left
    (fun acc a ->
      match List.assoc_opt a dims with
      | Some d -> acc * d
      | None -> invalid_arg ("Contraction: axis extent not provided: " ^ a))
    1 axes

let roles_of_spec ~a ~b ~c ~scale ~groups ~grouped spec_str =
  let spec = Einsum.parse spec_str in
  match spec.Einsum.operands with
  | [ oa; ob ] ->
      let oc = spec.Einsum.result in
      let batch_axes = Axis.inter (Axis.inter oa ob) oc in
      let k_axes = Axis.diff (Axis.inter oa ob) oc in
      let m_axes = Axis.diff (Axis.inter oa oc) ob in
      let n_axes = Axis.diff (Axis.inter ob oc) oa in
      let covered = batch_axes @ k_axes @ m_axes @ n_axes in
      if not (Axis.equal_sets covered (Axis.union oa (Axis.union ob oc))) then
        invalid_arg
          ("Contraction: einsum is not GEMM-mappable (an axis appears in only \
            one tensor): " ^ spec_str);
      {
        Op.a;
        b;
        c;
        m_axes;
        n_axes;
        k_axes;
        batch_axes;
        scale;
        groups;
        grouped;
        a_list = [ a ];
        b_list = [ b ];
        c_list = [ c ];
      }
  | _ -> invalid_arg ("Contraction: exactly two operands required: " ^ spec_str)

let fetch_renamed env p name =
  let t = Op.lookup env name in
  match List.assoc_opt name p.renames with
  | Some pairs -> Dense.rename_axes t pairs
  | None -> t

let run_part env ?(scale = 1.0) p =
  let inputs = List.map (fetch_renamed env p) p.inputs in
  Einsum.eval ~scale p.spec inputs

(* VJP of one einsum part: for C = s * contract(A, B),
   dA = s * contract(dC, B) over A's axes and symmetrically for dB; gradients
   computed in the part's (renamed) axis space are renamed back to the
   containers' own axes. *)
let part_vjp env ~scale p cot =
  let spec = Einsum.parse p.spec in
  match (spec.Einsum.operands, p.inputs) with
  | [ oa; ob ], [ na; nb ] ->
      let a = fetch_renamed env p na and b = fetch_renamed env p nb in
      let invert name t =
        match List.assoc_opt name p.renames with
        | Some pairs ->
            Dense.rename_axes t (List.map (fun (x, y) -> (y, x)) pairs)
        | None -> t
      in
      let da = Einsum.contract ~scale [ cot; b ] ~out:oa in
      let db = Einsum.contract ~scale [ cot; a ] ~out:ob in
      [ (na, invert na da); (nb, invert nb db) ]
  | _ -> invalid_arg "Contraction.part_vjp: exactly two operands required"

let space_of_roles ~dims (roles : Op.gemm_roles) =
  let pick axes = List.map (fun a -> (a, prod dims [ a ])) axes in
  Iteration.make
    ~independent:(pick (roles.batch_axes @ roles.m_axes @ roles.n_axes))
    ~reduction:(pick roles.k_axes)

let flop_of_roles ~dims (roles : Op.gemm_roles) =
  2 * roles.groups
  * prod dims roles.m_axes
  * prod dims roles.n_axes
  * prod dims roles.k_axes
  * prod dims roles.batch_axes

let einsum ~name ?(scale = 1.0) ~dims ?(backward = false) p () =
  let roles =
    roles_of_spec
      ~a:(List.nth p.inputs 0)
      ~b:(List.nth p.inputs 1)
      ~c:p.output ~scale ~groups:1 ~grouped:`N p.spec
  in
  let vjp ~cotangents env =
    match List.assoc_opt p.output cotangents with
    | None -> []
    | Some cot -> part_vjp env ~scale p cot
  in
  {
    Op.name;
    cls = Sdfg.Opclass.Contraction;
    reads = p.inputs;
    writes = [ p.output ];
    space = space_of_roles ~dims roles;
    flop = flop_of_roles ~dims roles;
    kind = Op.Gemm roles;
    run = (fun env -> Op.store env p.output (run_part env ~scale p));
    backward;
    vjp = Some vjp;
    (* renamed parts are opaque to structural matchers: the spec no longer
       names the containers' own axes *)
    sem =
      (if p.renames = [] then
         Some
           (Op.Contract
              { c_spec = p.spec; c_inputs = p.inputs; c_out = p.output;
                c_scale = scale })
       else None);
  }

let grouped ~name ?(scale = 1.0) ~dims ?(backward = false) ~group_role
    ?(accumulate = false) parts () =
  let first =
    match parts with
    | [] -> invalid_arg "Contraction.grouped: no parts"
    | p :: _ -> p
  in
  let grouped_tag =
    match group_role with Group_m -> `M | Group_n -> `N | Group_k -> `K
  in
  let base_roles =
    roles_of_spec
      ~a:(List.nth first.inputs 0)
      ~b:(List.nth first.inputs 1)
      ~c:first.output ~scale ~groups:(List.length parts) ~grouped:grouped_tag
      first.spec
  in
  let dedup l = List.sort_uniq String.compare l in
  let roles =
    {
      base_roles with
      Op.a_list = dedup (List.map (fun p -> List.nth p.inputs 0) parts);
      b_list = dedup (List.map (fun p -> List.nth p.inputs 1) parts);
      c_list = dedup (List.map (fun p -> p.output) parts);
    }
  in
  let reads =
    List.sort_uniq String.compare (List.concat_map (fun p -> p.inputs) parts)
  in
  let writes =
    List.sort_uniq String.compare (List.map (fun p -> p.output) parts)
  in
  if accumulate && List.length writes <> 1 then
    invalid_arg "Contraction.grouped: accumulate requires a single output";
  let run env =
    if accumulate then begin
      (* The first part's result is fresh, so the later parts are summed
         into it in place, left to right: the Dense.add fold's bits
         without a new array per part. *)
      let acc = run_part env ~scale (List.hd parts) in
      List.iter
        (fun p -> Dense.add_into acc (run_part env ~scale p))
        (List.tl parts);
      Op.store env (List.hd writes) acc
    end
    else
      List.iter (fun p -> Op.store env p.output (run_part env ~scale p)) parts
  in
  let vjp ~cotangents env =
    List.concat_map
      (fun p ->
        match List.assoc_opt p.output cotangents with
        | None -> []
        | Some cot -> part_vjp env ~scale p cot)
      parts
  in
  {
    Op.name;
    cls = Sdfg.Opclass.Contraction;
    reads;
    writes;
    space = space_of_roles ~dims roles;
    flop = flop_of_roles ~dims roles;
    kind = Op.Gemm roles;
    run;
    backward;
    vjp = Some vjp;
    sem = None;
  }

let gemm_shape_of (op : Op.t) ~dims =
  match op.kind with
  | Op.Gemm roles ->
      let mult role v = if roles.grouped = role then v * roles.groups else v in
      ( mult `M (prod dims roles.m_axes),
        mult `N (prod dims roles.n_axes),
        mult `K (prod dims roles.k_axes),
        prod dims roles.batch_axes )
  | Op.Map | Op.Reduce ->
      invalid_arg ("Contraction.gemm_shape_of: not a contraction: " ^ op.name)

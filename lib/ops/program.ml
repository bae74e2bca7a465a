type t = {
  containers : (string * (Axis.t * int) list) list;
  ops : Op.t list;
}

let make ~containers ops = { containers; ops }

let graph p =
  let g = Sdfg.Graph.create () in
  List.iter
    (fun (name, dims) -> Sdfg.Graph.add_data g name (Shape.create dims))
    p.containers;
  List.iter (fun op -> Sdfg.Graph.add_op g (Op.to_graph_op op)) p.ops;
  g

let run p inputs =
  let env = Op.env_of_list inputs in
  List.iter (fun (op : Op.t) -> op.run env) p.ops;
  env

let container_dims p name =
  match List.assoc_opt name p.containers with
  | Some dims -> dims
  | None -> invalid_arg ("Program.container_dims: unknown container " ^ name)

let forward_ops p = List.filter (fun (o : Op.t) -> not o.backward) p.ops
let backward_ops p = List.filter (fun (o : Op.t) -> o.backward) p.ops
let replace_ops p ops = { p with ops }

let validate p =
  let declared = List.map fst p.containers in
  let missing =
    List.concat_map
      (fun (o : Op.t) ->
        List.filter (fun c -> not (List.mem c declared)) (o.reads @ o.writes)
        |> List.map (fun c -> Printf.sprintf "%s (op %s)" c o.name))
      p.ops
  in
  if missing <> [] then
    Error ("undeclared containers: " ^ String.concat ", " missing)
  else
    match Sdfg.Graph.validate (graph p) with
    | Ok () -> Ok ()
    | Error msg -> Error msg

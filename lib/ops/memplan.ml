(* Whole-program static memory planning as liveness.

   The functional interpreter ({!Program.run}) materializes a fresh tensor
   for every op and keeps every container in the environment until the run
   ends, so the resident set is the sum of every intermediate — far beyond
   what the dataflow needs. The plan is the lifetime analysis
   {!Memory.profile} already performs: after each op, drop the containers
   whose last use it was. Ops run in program order and allocate their own
   outputs; the garbage collector reclaims what the environment no longer
   names.

   Planned execution is bitwise-equal to the allocate-everything oracle:
   every op runs its own closure in program order over the same
   environment, and a container leaves the environment only once no later
   op reads it. *)

type stats = {
  ops : int;
  containers : int;
  naive_peak_floats : int;
  plan_peak_floats : int;
  slots : int;
  inplace : int;
  aliased : int;
}

type t = {
  p_ops : Op.t array;
  p_dead : string list array;  (* containers whose last use is op i *)
  p_stats : stats;
}

let stats t = t.p_stats

let plan ?keep (p : Program.t) =
  let ops = Array.of_list p.Program.ops in
  let prof = Memory.profile ~bytes_per_elem:1 ?keep p in
  let dead = Array.make (Array.length ops) [] in
  List.iter
    (fun (l : Memory.lifetime) ->
      if not l.persistent then dead.(l.last_use) <- l.container :: dead.(l.last_use))
    prof.lifetimes;
  let inputs, written =
    List.partition (fun (l : Memory.lifetime) -> l.input) prof.lifetimes
  in
  let floats ls = List.fold_left (fun acc (l : Memory.lifetime) -> acc + l.bytes) 0 ls in
  let stats =
    {
      ops = Array.length ops;
      containers = List.length written;
      naive_peak_floats = floats written;
      (* inputs are resident at every op, so they shift every op's total
         by the same amount *)
      plan_peak_floats = prof.peak_bytes - floats inputs;
      slots = 0;
      inplace = 0;
      aliased = 0;
    }
  in
  { p_ops = ops; p_dead = dead; p_stats = stats }

let execute ?check_op ?wrap_op t inputs =
  let env = Op.env_of_list inputs in
  Array.iteri
    (fun i (op : Op.t) ->
      let body () =
        op.Op.run env;
        Option.iter (fun f -> f op env) check_op
      in
      (match wrap_op with Some w -> w op body | None -> body ());
      List.iter (Hashtbl.remove env) t.p_dead.(i))
    t.p_ops;
  env

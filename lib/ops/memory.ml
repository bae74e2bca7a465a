type lifetime = {
  container : string;
  bytes : int;
  first_use : int;
  last_use : int;
  persistent : bool;
  input : bool;
}

type profile = {
  lifetimes : lifetime list;
  resident : int array;
  peak_bytes : int;
  peak_at : int;
  total_bytes : int;
}

let profile ?(bytes_per_elem = 2) ?(keep = []) (p : Program.t) =
  let ops = Array.of_list p.Program.ops in
  let n = Array.length ops in
  let first_write = Hashtbl.create 64 in
  let first_read = Hashtbl.create 64 in
  let last_read = Hashtbl.create 64 in
  Array.iteri
    (fun i (op : Op.t) ->
      List.iter
        (fun c ->
          if not (Hashtbl.mem first_read c) then Hashtbl.replace first_read c i;
          Hashtbl.replace last_read c i)
        op.reads;
      List.iter
        (fun c ->
          if not (Hashtbl.mem first_write c) then Hashtbl.replace first_write c i)
        op.writes)
    ops;
  let touched = Hashtbl.create 64 in
  Array.iter
    (fun (op : Op.t) ->
      List.iter (fun c -> Hashtbl.replace touched c ()) (op.reads @ op.writes))
    ops;
  let lifetimes =
    Hashtbl.fold
      (fun c () acc ->
        let bytes =
          bytes_per_elem
          * List.fold_left (fun a (_, d) -> a * d) 1 (Program.container_dims p c)
        in
        let fw = Hashtbl.find_opt first_write c in
        let fr = Hashtbl.find_opt first_read c in
        let is_input =
          match (fw, fr) with
          | None, Some _ -> true (* never written: pure input *)
          | Some w, Some r -> r < w (* read before first write *)
          | _ -> false
        in
        let first_use =
          if is_input then 0
          else match fw with Some w -> w | None -> 0
        in
        let never_read = Hashtbl.find_opt last_read c = None in
        let persistent = is_input || never_read || List.mem c keep in
        let last_use =
          if persistent then n - 1
          else match Hashtbl.find_opt last_read c with Some r -> r | None -> n - 1
        in
        { container = c; bytes; first_use; last_use; persistent; input = is_input }
        :: acc)
      touched []
    |> List.sort (fun a b -> compare (a.first_use, a.container) (b.first_use, b.container))
  in
  let resident = Array.make (max 1 n) 0 in
  List.iter
    (fun l ->
      for i = l.first_use to l.last_use do
        resident.(i) <- resident.(i) + l.bytes
      done)
    lifetimes;
  let peak_at = ref 0 in
  Array.iteri (fun i v -> if v > resident.(!peak_at) then peak_at := i) resident;
  {
    lifetimes;
    resident;
    peak_bytes = (if n = 0 then 0 else resident.(!peak_at));
    peak_at = !peak_at;
    total_bytes = List.fold_left (fun a l -> a + l.bytes) 0 lifetimes;
  }

let fits profile ~capacity = profile.peak_bytes <= capacity

let pp ppf p =
  Format.fprintf ppf
    "peak resident %.1f MB (at operator %d of %d); %.1f MB total without \
     freeing; %d containers"
    (float_of_int p.peak_bytes /. 1e6)
    p.peak_at (Array.length p.resident)
    (float_of_int p.total_bytes /. 1e6)
    (List.length p.lifetimes)

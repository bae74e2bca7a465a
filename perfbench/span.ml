(* In-memory spans recorded by the benchmark around its calls into each
   layer. A span's self time is its duration minus the part of its
   interval that its children cover. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  cls : string;  (** layer the span is charged to *)
  t0 : float;
  t1 : float;
  flop : int;
  backward : bool;
}

type recorder = { mutable spans : t list; mutable next : int }

let recorder () = { spans = []; next = 0 }

(* [record r ~parent name f] runs [f id] inside a span and returns its
   result; [f] receives the new span's id so nested calls can name it as
   their parent. *)
let record r ?(parent = -1) ?(cls = "") ?(flop = 0) ?(backward = false) name f =
  let id = r.next in
  r.next <- id + 1;
  let t0 = Stats.now () in
  let finish () =
    r.spans <-
      { id; parent; name; cls; t0; t1 = Stats.now (); flop; backward }
      :: r.spans
  in
  match f id with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let duration s = s.t1 -. s.t0

let children spans id = List.filter (fun s -> s.parent = id) spans

(* Length of the union of the children's intervals, clipped to the
   parent's interval. *)
let covered parent kids =
  let ivs =
    List.sort compare
      (List.map
         (fun k -> (Float.max k.t0 parent.t0, Float.min k.t1 parent.t1))
         kids)
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. Float.max 0.0 (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match last with
  | Some (a, b) -> total +. Float.max 0.0 (b -. a)
  | None -> total

let self_time spans s = duration s -. covered s (children spans s.id)

(* Integrity of one span tree: every child lies inside its parent and no
   two siblings overlap, which is exactly when the self times of all spans
   under [root] sum to [root]'s duration. Returns the discrepancy in
   seconds (0 up to rounding for a consistent tree). *)
let tree_discrepancy spans root =
  let rec sum_self s =
    List.fold_left
      (fun acc k -> acc +. sum_self k)
      (self_time spans s) (children spans s.id)
  in
  Float.abs (sum_self root -. duration root)

(* Global switch between the optimized CPU numeric backend and the naive
   reference (oracle) implementations. The naive paths stay in-tree as the
   semantic ground truth; every fast kernel is validated against them. *)

let state = ref (not (Substation_env.naive ()))
let enabled () = !state

let with_mode b f =
  let saved = !state in
  state := b;
  Fun.protect ~finally:(fun () -> state := saved) f

let with_naive f = with_mode false f


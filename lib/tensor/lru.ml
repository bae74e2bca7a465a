(* A bounded least-recently-used cache with hit/miss/eviction counters.
   Each entry carries its last-use tick; inserting into a full cache
   evicts stalest entries until it has room (an O(entries) scan each,
   paid only on a miss with a full cache). *)

type ('k, 'v) t = {
  table : ('k, 'v * int ref) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create capacity =
  {
    table = Hashtbl.create 64;
    capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let find t key =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.table key with
  | Some (v, last) ->
      t.hits <- t.hits + 1;
      last := t.tick;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      None

let evict_stalest t =
  let victim = ref None in
  Hashtbl.iter
    (fun key (_, last) ->
      match !victim with
      | Some (_, stalest) when !last >= stalest -> ()
      | _ -> victim := Some (key, !last))
    t.table;
  match !victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1
  | None -> ()

let add t key v =
  if not (Hashtbl.mem t.table key) then
    while Hashtbl.length t.table >= t.capacity do
      evict_stalest t
    done;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.table key (v, ref t.tick)

let length t = Hashtbl.length t.table
let capacity t = t.capacity
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let clear t = Hashtbl.reset t.table

let reset t =
  clear t;
  t.tick <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

(* Scratch-buffer arena: the fused executor kernels and the einsum GEMM
   packing path run many times over the same shapes, so instead of
   allocating (and collecting) a fresh float array per call they borrow a
   buffer of the right size from a small pool keyed by length. Buffers are
   returned on scope exit, so nested borrows of the same size are safe.

   The pools live in domain-local storage: each domain (the main one and
   every Pool worker) sees its own private length-keyed pool through the
   same [t], so parallel kernels borrow packing/row scratch without any
   locking or sharing — a borrow on one domain can never observe, or
   stomp on, a buffer in flight on another.

   Retention is bounded: serving workloads present many distinct shapes
   (one per ragged batch geometry), so parked buffers are capped per
   domain and least-recently-used length classes are dropped first. *)

type entry = { mutable bufs : float array list; mutable last_use : int }

type dpool = {
  table : (int, entry) Hashtbl.t;
  mutable retained : int;  (* floats parked across all classes *)
  mutable tick : int;
  mutable evictions : int;  (* length classes dropped by the cap *)
  mutable live : int;  (* floats currently borrowed (in flight) *)
  mutable peak : int;  (* high-water mark of [live] since last reset *)
}

type t = { pools : dpool Domain.DLS.key }

(* Per-domain retention cap, in floats (default 4 M = 32 MB). *)
let max_retained = ref (1 lsl 22)

let set_max_retained n =
  if n < 0 then invalid_arg "Arena.set_max_retained: need >= 0";
  max_retained := n

type stats = {
  retained_floats : int;
  classes : int;
  evictions : int;
  capacity_floats : int;
  live_floats : int;
  peak_floats : int;
}

let create () =
  {
    pools =
      Domain.DLS.new_key (fun () ->
          {
            table = Hashtbl.create 16;
            retained = 0;
            tick = 0;
            evictions = 0;
            live = 0;
            peak = 0;
          });
  }

let stats t =
  let d = Domain.DLS.get t.pools in
  {
    retained_floats = d.retained;
    classes = Hashtbl.length d.table;
    evictions = d.evictions;
    capacity_floats = !max_retained;
    live_floats = d.live;
    peak_floats = d.peak;
  }

let reset_peak t =
  let d = Domain.DLS.get t.pools in
  d.peak <- d.live

let entry d n =
  match Hashtbl.find_opt d.table n with
  | Some e -> e
  | None ->
      let e = { bufs = []; last_use = d.tick } in
      Hashtbl.add d.table n e;
      e

let class_floats n e = n * List.length e.bufs

(* Drop least-recently-used length classes (sparing [keep]) until the
   retained total fits under the cap. *)
let evict_until_fits d ~keep =
  let continue_ = ref true in
  while d.retained > !max_retained && !continue_ do
    let victim = ref None in
    Hashtbl.iter
      (fun n e ->
        if n <> keep && e.bufs <> [] then
          match !victim with
          | Some (_, _, stalest) when e.last_use >= stalest -> ()
          | _ -> victim := Some (n, e, e.last_use))
      d.table;
    match !victim with
    | Some (n, e, _) ->
        d.retained <- d.retained - class_floats n e;
        e.bufs <- [];
        Hashtbl.remove d.table n;
        d.evictions <- d.evictions + 1
    | None -> continue_ := false
  done

let borrow t n =
  let d = Domain.DLS.get t.pools in
  d.tick <- d.tick + 1;
  let e = entry d n in
  e.last_use <- d.tick;
  d.live <- d.live + n;
  if d.live > d.peak then d.peak <- d.live;
  match e.bufs with
  | buf :: rest ->
      e.bufs <- rest;
      d.retained <- d.retained - n;
      buf
  | [] -> Array.make n 0.0

(* Idempotent: releasing a buffer already in the pool (a double release
   from convoluted unwind paths) must not create aliased borrows. Pools
   are a handful of entries deep, so the physical-membership scan is
   cheap. *)
let release t buf =
  let d = Domain.DLS.get t.pools in
  let n = Array.length buf in
  d.tick <- d.tick + 1;
  let e = entry d n in
  e.last_use <- d.tick;
  if not (List.memq buf e.bufs) then begin
    (* only a first release retires a live borrow; double releases from
       convoluted unwind paths must not double-decrement *)
    d.live <- (if d.live > n then d.live - n else 0);
    if n <= !max_retained then begin
      (* a buffer alone above the cap is simply left to the collector *)
      e.bufs <- buf :: e.bufs;
      d.retained <- d.retained + n;
      if d.retained > !max_retained then evict_until_fits d ~keep:n
    end
  end

let with_scratch t n f =
  let buf = borrow t n in
  Fun.protect ~finally:(fun () -> release t buf) (fun () -> f buf)

(* Drop every pooled buffer on the calling domain. Used by the kernel
   guard before an oracle fallback re-run: a fast kernel that crashed
   mid-pack has returned its scratch (borrows are [Fun.protect]ed), but
   discarding the pools guarantees the oracle starts from fresh
   allocations rather than inheriting any in-flight aliasing. *)
let reset t =
  let d = Domain.DLS.get t.pools in
  Hashtbl.reset d.table;
  d.retained <- 0;
  d.live <- 0;
  d.peak <- 0

let global = create ()

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer: avalanches the counter into 64 well-mixed bits. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let hash64 key =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    key;
  mix !h

let of_key seed key = create (Int64.logxor seed (hash64 key))

(* Top 53 bits -> [0, 1). *)
let[@inline] unit_float z =
  Int64.to_float (Int64.shift_right_logical z 11) *. (1.0 /. 9007199254740992.0)

let float t = unit_float (next_int64 t)

(* splitmix64 is counter-based: the state after n draws is
   state0 + n*gamma and each output is a pure finalization of the state,
   so draw [i] (0-based) is computable without walking the stream. This
   is the one dropout recipe: draw [i] below [p] drops the element (0.0),
   anything else keeps it at [scale] — [bernoulli ~p] evaluated at a
   counter position, so masks drawn in any order agree bitwise with the
   sequential walk. The result is the static 0.0 or the caller's own
   [scale], so an out-of-line call returns it without boxing a float. *)
let[@inline] keep_at state i ~p ~scale =
  let s = Int64.add state (Int64.mul (Int64.of_int (i + 1)) golden_gamma) in
  if unit_float (mix s) < p then 0.0 else scale

(* The same draws in C (elt_stubs.c), with the comparison in integers:
   [unit_float z < p] exactly when [z lsr 11 < ceil (p * 2^53)]. *)
external keep_fill_raw :
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int64[@unboxed]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  unit = "substation_keep_fill_byte" "substation_keep_fill"
[@@noalloc]

let keep_fill dst ~at ~n state ~e0 ~p ~scale =
  if at < 0 || n < 0 || at + n > Array.length dst then
    invalid_arg "Prng.keep_fill: range out of bounds";
  keep_fill_raw dst at n state e0 p scale

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let gaussian t =
  let rec nonzero () =
    let u = float t in
    if u > 1e-300 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let bernoulli t ~p = float t < p

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let split t = create (next_int64 t)

let state t = t.state
let set_state t s = t.state <- s

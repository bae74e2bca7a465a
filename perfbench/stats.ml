(* Sample statistics and result rendering shared by every workload. *)

let now = Unix.gettimeofday

(* Linear interpolation between order statistics (the "type 7" estimator),
   so a percentile moves smoothly with the samples instead of jumping
   between neighbours. [nan] on no samples. *)
let percentile samples q =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median samples = percentile samples 0.5

let sum = Array.fold_left ( +. ) 0.0

(* A growable float buffer, for per-step samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 64 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let length t = t.len
end

(* Shortest decimal rendering that reads back as the same float: a
   measured value keeps all its digits. *)
let number v =
  if not (Float.is_finite v) then invalid_arg "Stats.number: non-finite value";
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* A reported metric: value, unit, and for percentiles the sample count
   behind it (0 when the value is not a percentile). *)
type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 0) name unit_ value = { name; value; unit_; samples }

(* p50 and p90 of [xs] under [prefix], each carrying the sample count. *)
let percentiles prefix unit_ xs =
  let samples = Array.length xs in
  [
    metric ~samples (prefix ^ ".p50") unit_ (percentile xs 0.5);
    metric ~samples (prefix ^ ".p90") unit_ (percentile xs 0.9);
  ]

let ratio num den = if den = 0.0 then 0.0 else num /. den

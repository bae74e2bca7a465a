(* The library's exp (elt_stubs.c): a table-driven scalar form and a
   4-lane array form with the same operations per lane. *)

external exp : float -> float = "substation_exp_byte" "substation_exp"
[@@unboxed] [@@noalloc]

external exp_array :
  float array -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "substation_exp_array_byte" "substation_exp_array"
[@@noalloc]

let exp_inplace a ~off ~n =
  if off < 0 || n < 0 || off + n > Array.length a then
    invalid_arg "Fmath.exp_inplace: range out of bounds";
  exp_array a off n

(** The typed pass interface: a named rewrite over [Ops.Program.t],
    threaded through a mutable compilation context accumulating the
    non-program plan artifacts. Every pass must leave the values of every
    container both versions materialize bitwise unchanged; that is what
    [Compiled.compile ~verify:true] checks. *)

type stat = {
  st_pass : string;
  st_ops_before : int;
  st_ops_after : int;
  st_peak_floats : int;
      (** allocate-everything resident set after the pass; from the
          memory-planning pass onward, the planned peak *)
  st_elapsed : float;  (** seconds spent in the rewrite *)
  st_note : string;
}

type ctx = {
  regime : Regime.t;
  name_table : (string list * string) list;
  params : string list;
  mutable attn_sites : Substation.Fusion.attn_site list;
  mutable memplan : Ops.Memplan.t option;
  mutable prepack : string list;
  mutable note : string;
  mutable peak_override : int option;
}

val make_ctx :
  ?name_table:(string list * string) list ->
  ?params:string list ->
  Regime.t ->
  ctx

type t = {
  p_name : string;
  p_enabled : ctx -> bool;
  p_rewrite : ctx -> Ops.Program.t -> Ops.Program.t;
}

(** Allocate-everything resident set of a program, in floats. *)
val naive_peak_floats : Ops.Program.t -> int

val pp_stat : Format.formatter -> stat -> unit

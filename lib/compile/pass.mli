(** One row of a plan's pass trace ([Compiled.plan]'s [trace]). Every pass
    must leave the values of every container both versions materialize
    bitwise unchanged; that is what [Compiled.compile ~verify:true]
    checks after each one. *)

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

(** Allocate-everything resident set of a program, in floats. *)
val naive_peak_floats : Ops.Program.t -> int

val pp_stat : Format.formatter -> stat -> unit

(** Compilation regimes: the part of the plan-cache key the passes read
    besides the program. (program fingerprint x regime) identifies a
    {!Compiled.plan} completely. The backend mode ({!Fastmode}), domain
    count ({!Pool}) and guard level ({!Guard}) are not part of a regime:
    they are read at run time (the mode by [Guard.protected] alone), so
    one plan executes under any of them. *)

type t = {
  keep : string list;  (** containers the caller reads from the env *)
}

(** Every plan runs the same pipeline ({!Passes}): canonicalize,
    attention windowing, fusion and memory planning. The memory plan
    drops each intermediate after its last use, so only [keep] + terminal
    outputs survive in the returned environment. Every [keep] container
    survives, fused or not: fusion treats it as read outside its group,
    and no attention window forms around it. A streaming window forms
    wherever the attention pattern matches and [keep] names none of its
    score containers. *)
val current : ?keep:string list -> unit -> t

(** Canonical cache-key rendering. *)
val key : t -> string

(** Compilation regimes: the part of the plan-cache key the passes read
    besides the program. (program fingerprint x regime) identifies a
    {!Compiled.plan} completely. The backend mode ({!Fastmode}), domain
    count ({!Pool}) and guard level ({!Guard}) are not part of a regime:
    kernels read them at run time, so one plan executes under any of
    them. *)

type t = {
  attention : bool;  (** recognize streaming-attention windows *)
  keep : string list;  (** containers the caller reads from the env *)
}

(** The full pipeline: DCE/CSE, attention windowing (when [attention],
    default [true]), fusion and memory planning. The memory plan drops
    each intermediate after its last use, so only [keep] + terminal
    outputs survive in the returned environment. Every [keep] container survives, fused or not: fusion
    treats it as read outside its group, and no attention window forms
    around it. *)
val current : ?attention:bool -> ?keep:string list -> unit -> t

(** Canonical cache-key rendering. *)
val key : t -> string

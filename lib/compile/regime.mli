(** Compilation regimes: the execution-environment half of the plan-cache
    key (fastmode, domain count, guard level) plus one switch deciding
    whether the pass pipeline rewrites the program. (program fingerprint
    x regime) identifies a {!Compiled.plan} completely, and
    {!Compiled.execute} installs the regime's backend mode and guard
    level for the run. *)

type t = {
  fast : bool;  (** fast CPU backend vs naive oracle *)
  domains : int;  (** effective worker domain count *)
  guard : Guard.level;  (** kernel-guard level installed at execute *)
  attention : bool;  (** recognize streaming-attention windows *)
  keep : string list;  (** containers the caller reads from the env *)
  rewrite : bool;
      (** run the full pipeline: DCE/CSE, attention windowing, fusion,
          memory planning, and prepack (when params are given). [false]
          is {!passthrough}. *)
}

(** The full pipeline under the ambient fastmode / domains / guard
    settings. The memory plan drops each intermediate after its last
    use, so only [keep] + terminal outputs survive in the returned
    environment. Every [keep] container survives, fused or not: fusion
    treats it as read outside its group, and no attention window forms
    around it. *)
val current : ?attention:bool -> ?keep:string list -> unit -> t

(** No rewriting: the program executes op-for-op as written with every
    intermediate retained — the executor's default, used to bisect a
    suspected pass or planner issue against {!current}. [fast] defaults
    to the ambient {!Fastmode} setting. *)
val passthrough : ?fast:bool -> unit -> t

(** Canonical cache-key rendering. *)
val key : t -> string

(** Static memory planning as liveness: drop each container after its
    last use.

    {!Program.run} allocates a fresh tensor per op and retains every
    container, so its peak resident set is the sum of all intermediates.
    [plan] runs {!Memory.profile}'s lifetime analysis over a (post-fusion)
    program and records, for each op, the containers whose last use it is.
    [execute] runs each op's own closure in program order and then drops
    that op's dead containers from the environment. The plan holds no
    buffers and searches no schedule.

    [execute] is bitwise-equal to {!Program.run} (serial and parallel,
    fast and naive mode): every value is computed by the op's own closure
    over the same environment. *)

type t
(** A compiled plan: the program's ops plus each op's dead containers. *)

type stats = {
  ops : int;
  containers : int;  (** materialized (non-input) containers *)
  naive_peak_floats : int;  (** allocate-everything resident set *)
  plan_peak_floats : int;
      (** most floats the planned environment holds at once, inputs
          excluded *)
  slots : int;  (** always 0: no buffer is recycled *)
  inplace : int;  (** always 0: no op overwrites its input's buffer *)
  aliased : int;  (** always 0: no container shares another's buffer *)
}

val plan : ?keep:string list -> Program.t -> t
(** Analyze [p]. Containers in [keep] (plus terminal outputs that no op
    reads, and the caller's inputs) are never dropped. *)

val stats : t -> stats

val execute :
  ?check_op:(Op.t -> Op.env -> unit) ->
  ?wrap_op:(Op.t -> (unit -> unit) -> unit) ->
  t ->
  (string * Dense.t) list ->
  Op.env
(** Run the plan over [inputs]. [check_op], called after each op with the
    environment still holding that op's outputs (and before dead
    containers are dropped), hosts the executor's numerical guards.
    [wrap_op op body] wraps each op's execution (op body + check, but not
    the dead-container removal, so a retrying wrapper sees a consistent
    environment); the compiled-plan executor uses it for resilience
    retries. [wrap_op] must call [body] exactly
    once on the success path. The returned environment holds the inputs
    plus kept containers. A plan is immutable, so concurrent [execute]s
    are safe. *)

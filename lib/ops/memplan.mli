(** Static memory planning: lifetime-analyzed slot placement and a
    schedule chosen to minimize the resident set.

    {!Program.run} allocates a fresh tensor per op and retains every
    container, so its peak resident set is the sum of all intermediates.
    [plan] analyzes container lifetimes over a (post-fusion) program,
    compares the program order against a greedy peak-minimizing
    topological reorder, and assigns each non-escaping container to a
    recycled slot buffer: contractions write straight into their slot,
    and every other op runs its own closure with the output adopted into
    the slot after the fact. Pinned inputs and outputs that escape to the
    caller get fresh storage every run.

    [execute] is bitwise-equal to {!Program.run} (serial and parallel,
    fast and naive mode): the environment remains the source of truth,
    every value is computed by the op's own closure or the einsum it
    calls, and guarded kernels recover into private storage. *)

type t
(** A compiled plan: a placement-annotated action per op plus the slot
    buffers it recycles across runs. *)

type stats = {
  ops : int;
  containers : int;  (** materialized (written) containers *)
  naive_peak_floats : int;  (** allocate-everything resident set *)
  plan_peak_floats : int;  (** slab + escaping outputs under the plan *)
  live_peak_floats : int;  (** max simultaneously-live floats in the schedule *)
  slots : int;
  slab_floats : int;  (** total recycled slot storage *)
  placed : int;  (** contractions writing straight into slots *)
  adopted : int;  (** other ops whose outputs were adopted into slots *)
  inplace : int;  (** always 0: no op overwrites its input's buffer *)
  aliased : int;  (** always 0: no container shares another's buffer *)
  reordered : bool;  (** schedule differs from program order *)
}

val register_sidecar : string -> unit
(** Register an environment-key suffix that shadows a container (e.g.
    [".lse"] for streaming attention's per-row logsumexp): removing a
    dead container also removes [container ^ suffix]. *)

val plan : ?keep:string list -> Program.t -> t
(** Analyze and place [p]. Containers in [keep] (plus terminal outputs
    that no op reads) escape to the caller: they get fresh storage every
    run. Both the program order and the greedy peak-minimizing schedule
    are placed; the one with the smaller planned resident set wins. The
    plan owns its slot buffers, so re-executing it reuses them. *)

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
    [wrap_op op body] wraps each op's execution (action body + check, but
    not the dead-container removal, so a retrying wrapper sees a
    consistent environment); the compiled-plan executor uses it to scope
    per-op tuned bindings and resilience retries. [wrap_op] must call
    [body] exactly once on the success path. The returned environment
    holds the inputs plus kept containers. A concurrent [execute] of the
    same plan is safe: the second caller runs against private
    (non-recycled) buffers. *)


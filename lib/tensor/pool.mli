(** Persistent [Domain]-based worker pool for the fast CPU backend, with
    job supervision.

    Worker domains are spawned once (lazily) and parked on a condition
    variable between jobs, so a steady-state parallel region costs a
    broadcast plus a few atomic increments. Callers split an index range
    into disjoint chunks; because chunks never overlap and reductions are
    merged in ascending chunk order on the submitting domain, results are
    {b bitwise identical} to a serial run whenever per-chunk work only
    touches chunk-owned data (the contract every caller in this repo
    honors).

    Supervision: every job carries the cancellation context (token and/or
    deadline, see {!with_token} / {!with_deadline}) ambient at submit
    time, checked before each chunk body runs. A chunk that raises —
    including an injected {!Execfault} worker crash — is captured as a
    structured {!failure} (exception, backtrace, chunk id, job label),
    recorded once, and re-raised on the submitting domain after the job
    drains; the poisoned pool is torn down and respawned on the next
    region. Hangs are cooperative: long bodies poll {!check_cancel}.

    Sizing: the scoped override ({!with_domains} / {!set_domains}) wins,
    then the [SUBSTATION_DOMAINS] environment variable, then
    [Domain.recommended_domain_count ()]. [0] and [1] both mean serial
    (every region runs inline on the caller). Nested parallel regions —
    a chunk body reaching another parallel entry point — always run
    inline serially. *)

val num_domains : unit -> int
(** Effective domain count for the next parallel region (>= 1). *)

val set_domains : int -> unit
(** Persistently override the domain count ([0]/[1] = serial). Raises
    [Invalid_argument] on negative counts. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains n f] runs [f] with the domain count pinned to [n],
    restoring the previous setting afterwards (exception-safe). Mirrors
    {!Fastmode.with_mode}; meant for tests and benchmarks. *)

val running_in_worker : unit -> bool
(** True when called from inside a parallel region (worker domain or the
    submitting domain executing one of its own chunks). *)

(** {1 Cancellation and deadlines} *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); the clock every deadline in
    this module is measured against. *)

type token
(** A cooperative cancellation token: set once, observed at chunk
    boundaries and wherever {!check_cancel} is polled. *)

val create_token : unit -> token
val cancel : token -> unit
val cancelled : token -> bool

exception Cancelled
(** Raised by {!check_cancel} when the ambient token is cancelled. *)

exception Deadline_exceeded of { label : string; overrun : float }
(** Raised by {!check_cancel} when the ambient deadline has passed;
    [label] names the scope that set the deadline, [overrun] is seconds
    past it. *)

val with_deadline : ?scope:string -> float -> (unit -> 'a) -> 'a
(** [with_deadline seconds f] runs [f] under a wall-clock budget. Nested
    deadlines take the minimum. Enforcement is cooperative: the budget is
    checked at parallel-region entry, before every pool chunk, and at
    every explicit {!check_cancel} poll. Submitting-domain use only.
    Raises [Invalid_argument] on non-positive budgets. *)

val with_token : ?scope:string -> token -> (unit -> 'a) -> 'a
(** [with_token t f] makes [t] the ambient cancellation token inside [f]:
    cancelling it aborts parallel work at the next chunk boundary. *)

val deadline_left : unit -> float option
(** Seconds until the ambient deadline (negative once past), or [None]
    when no deadline is set. *)

val check_cancel : unit -> unit
(** Poll the ambient cancellation context: raises {!Cancelled} or
    {!Deadline_exceeded} when cancelled or past deadline. Callable from
    chunk bodies (workers observe the job's context) and from serial
    code; long-running kernels should poll at natural boundaries. *)

(** {1 Failure capture} *)

type failure = {
  f_label : string;  (** the job's [?label] *)
  f_chunk : int;  (** chunk index whose body failed *)
  f_exn : exn;
  f_backtrace : string;
}

val last_failure : unit -> failure option
(** Structured record of the most recent poisoned job (its first failing
    chunk). The original exception is still re-raised on the submitter;
    this preserves the chunk id and worker-side backtrace that the bare
    exception loses. *)

val respawn_count : unit -> int
(** Number of times the pool was torn down and respawned after a poisoned
    job (diagnostic). *)

(** {1 Parallel regions}

    Callers decide whether a region pays for its dispatch. The GEMM row
    sharding ({!Gemm.gemm}) and the einsum batch sharding share one
    threshold, {!Gemm.par_min_work} multiply-adds. *)

val parallel_for :
  ?label:string ->
  ?chunks:int ->
  start:int ->
  finish:int ->
  (int -> int -> unit) ->
  unit
(** [parallel_for ~start ~finish f] covers the half-open range
    [\[start, finish)] with disjoint chunks, calling [f lo hi] once per
    chunk ([lo] inclusive, [hi] exclusive). [chunks] defaults to the
    effective domain count and is clamped to the range length. [label]
    names the job in failure records and execution-fault draws. Runs [f
    start finish] inline when serial. The first exception raised by any
    chunk is re-raised on the caller after all chunks finish (remaining
    chunks are skipped, and the pool respawns its workers). *)

val parallel_for_reduce :
  ?label:string ->
  ?chunks:int ->
  start:int ->
  finish:int ->
  init:'a ->
  combine:('a -> 'a -> 'a) ->
  (int -> int -> 'a) ->
  'a
(** Like {!parallel_for} but each chunk returns a value; results are
    folded as [combine (... (combine init r0) ...) rN] in ascending chunk
    order regardless of execution order, so order-sensitive [combine]
    functions are deterministic. *)

val shutdown_workers : unit -> unit
(** Join and discard all worker domains (they respawn on the next
    parallel region). Only needed by harnesses that want a clean domain
    census; safe to call when no workers exist. *)

(** Guarded execution of fast kernels with automatic oracle fallback.

    Every fast kernel in this repo (GEMM einsum, fused operator chains,
    streaming attention) has an in-tree naive implementation that is the
    semantic ground truth. {!protected} is the single switch point between
    the two: it alone reads the {!Fastmode} backend mode, and on the
    naive backend it runs the oracle directly. On the fast backend it
    supervises the fast implementation under the ambient guard {!level}:
    if it raises, exceeds the per-kernel time budget, or (at
    [Nan]/[Finite] level) writes non-finite values into an output, the
    computation is transparently re-executed through the fallback closure
    — degrading throughput, never correctness. Engaged fallbacks are tallied in the
    quarantine registry and, within a recording scope, reported as
    {!event}s; a kernel that fails three times in a row trips a
    per-kernel circuit breaker that routes every subsequent launch straight to the oracle.

    The ambient level defaults to [Exceptions] and can be set process-wide
    with the [SUBSTATION_GUARD] environment variable
    ([off]/[exn]/[nan]/[finite]) or scoped with {!with_level}. Compiled
    plans carry no level of their own: a plan executes under whatever
    level is ambient. *)

type level = Substation_env.guard_level =
  | Off  (** no supervision: fast-path failures propagate *)
  | Exceptions  (** catch exceptions and kernel timeouts (default) *)
  | Nan  (** [Exceptions] + scan outputs for NaN *)
  | Finite  (** [Nan] + scan outputs for Inf *)

val level_to_string : level -> string

val level_of_string : string -> level option
(** Accepts the [SUBSTATION_GUARD] spellings
    ({!Substation_env.guard_level_of_string}). *)

val current_level : unit -> level
val set_level : level -> unit

val with_level : level -> (unit -> 'a) -> 'a
(** Scoped {!set_level}, exception-safe. *)

val with_fallback : bool -> (unit -> 'a) -> 'a
(** Scoped fallback switch. When disabled, a guarded failure raises
    ({!Guard_fault} for value-level faults, the original exception
    otherwise) instead of engaging the oracle. *)

val with_kernel_timeout : float option -> (unit -> 'a) -> 'a
(** Scoped per-kernel wall-clock budget: each guarded fast attempt runs
    under [Pool.with_deadline] with this many seconds (nested inside, and
    therefore clipped by, any ambient run deadline). *)

exception Guard_fault of { kernel : string; reason : string }
(** Raised in place of a fallback when {!with_fallback} has disabled it
    and the failure was a value-level fault (NaN/Inf scan hit), which has no
    original exception to re-raise. *)

(** {1 Quarantine and circuit breakers} *)

type entry = { q_kernel : string; q_reason : string; q_count : int }

val quarantine : unit -> entry list
(** Aggregated failure tally per (kernel, reason), sorted. *)

val tripped : string -> bool
(** Whether the kernel's circuit breaker is open. *)

val reset : unit -> unit
(** Clear the quarantine registry and close all circuit breakers. *)

(** {1 Fallback-event recording} *)

type event = { e_kernel : string; e_reason : string }

val with_recording : (unit -> 'a) -> 'a * event list
(** Collect every fallback engaged inside the scope, in execution order.
    Used by the executor to assemble its run report. Nests (inner scopes
    shadow outer ones). *)

(** {1 The guard} *)

val protected :
  kernel:string ->
  outputs:('a -> float array list) ->
  fallback:(unit -> 'a) ->
  (unit -> 'a) ->
  'a
(** [protected ~kernel ~outputs ~fallback fast] runs [fallback ()] when
    the naive {!Fastmode} backend is active: no fault hook fires, and
    nothing is quarantined or recorded. Otherwise it runs [fast ()] under
    the ambient guard level and returns its result.
    [outputs] projects the buffers to offer to the fault model and to scan
    at [Nan]/[Finite] level. On a recoverable failure the quarantine is
    updated and [fallback ()] (the naive oracle) is run instead.
    [Pool.Cancelled] always propagates; [Pool.Deadline_exceeded]
    propagates when the ambient run deadline (not just the kernel budget)
    has expired. At [Off] level [fast] runs unsupervised (fault hooks
    still fire, so an injected crash kills the run — the observable
    difference between guarded and unguarded execution). *)

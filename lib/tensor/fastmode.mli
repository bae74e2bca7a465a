(** Global switch between the optimized CPU numeric backend and the naive
    reference implementations.

    The fast paths (GEMM einsum lowering, fused executor kernels,
    streaming attention) are on by default; the naive odometer-loop
    implementations remain in-tree as the oracle. Set the environment
    variable [SUBSTATION_NAIVE=1] to start with the naive backend, or
    scope a mode with {!with_mode}. The mode is read in one place only,
    {!Guard.protected}, which runs each kernel's oracle directly when the
    fast backend is off. *)

val enabled : unit -> bool
(** Is the fast backend currently active? *)

val with_mode : bool -> (unit -> 'a) -> 'a
(** [with_mode b f] runs [f] with the backend toggled to [b], restoring the
    previous mode afterwards (exception-safe). *)

val with_naive : (unit -> 'a) -> 'a
(** [with_naive f] is [with_mode false f]: run [f] on the oracle path. *)

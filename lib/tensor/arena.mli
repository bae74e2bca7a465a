(** Scratch-buffer arena for the fast CPU backend.

    Hot kernels (einsum GEMM packing, fused executor passes) run repeatedly
    over identical shapes; borrowing scratch from a length-keyed pool avoids
    a fresh allocation + GC churn per invocation.

    Pools are domain-local: every domain sees its own private pool through
    the same [t], so borrowing from parallel {!Pool} workers is safe and
    contention-free without locks.

    Retention is bounded per domain (default 4 M floats = 32 MB): when the
    cap is exceeded, least-recently-used length classes are dropped first.
    Serving workloads present many distinct scratch shapes — one per
    ragged batch geometry — so an unbounded pool would be a slow leak. *)

type t

val create : unit -> t

val with_scratch : t -> int -> (float array -> 'a) -> 'a
(** [with_scratch t n f] calls [f] with a buffer of exactly [n] floats,
    returning it to the pool afterwards. Contents are {b dirty} (whatever a
    previous borrow left); a caller that accumulates clears it first. *)

val reset : t -> unit
(** Drop every pooled buffer on the calling domain (they become garbage;
    subsequent borrows allocate fresh). The kernel guard calls this
    before an oracle fallback re-run so the oracle can never inherit
    scratch a crashed kernel had in flight. *)

val global : t
(** Shared process-wide arena used by the built-in fast kernels. *)

(** {1 Retention accounting} *)

type stats = {
  retained_floats : int;  (** floats parked on the calling domain *)
  classes : int;  (** distinct buffer lengths pooled *)
  evictions : int;  (** length classes dropped by the cap *)
  capacity_floats : int;  (** current per-domain cap *)
  live_floats : int;  (** floats currently borrowed (in flight) *)
  peak_floats : int;  (** high-water mark of [live_floats] since the last
                          {!reset} / {!reset_peak} — the scratch working
                          set a kernel actually touched *)
}

val stats : t -> stats
(** Retention counters for the calling domain's pool. *)

val reset_peak : t -> unit
(** Reset the calling domain's high-water mark to the current live total,
    so a benchmark can bracket one kernel's scratch working set. *)

val set_max_retained : int -> unit
(** Set the per-domain retention cap, in floats ([>= 0]; 0 disables
    pooling entirely). Applies to all arenas. *)

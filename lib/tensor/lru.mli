(** A bounded least-recently-used cache with hit/miss/eviction counters:
    the one implementation behind the compiled-plan cache and
    {!Einsum}'s stride-plan cache. *)

type ('k, 'v) t

(** [create capacity]: an empty cache holding at most [capacity] entries. *)
val create : int -> ('k, 'v) t

(** Look [key] up, counting a hit (and marking the entry most recently
    used) or a miss. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** Insert or replace [key]; inserting a new key into a full cache first
    evicts least recently used entries until it has room. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

(** Change the bound; a shrunk cache sheds its stalest entries on the
    next insertion. *)
val set_capacity : ('k, 'v) t -> int -> unit

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int

(** Drop every entry; the counters keep counting. *)
val clear : ('k, 'v) t -> unit

(** Drop every entry and zero the counters. *)
val reset : ('k, 'v) t -> unit

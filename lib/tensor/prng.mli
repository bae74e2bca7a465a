(** Deterministic pseudo-random number generation (splitmix64).

    The simulator and the dropout operators need reproducible randomness that
    is independent of evaluation order: fused and unfused executions of the
    same dropout must draw the identical mask. Each consumer therefore derives
    its own generator from a seed and a string key. *)

type t

(** [create seed] makes a fresh generator. Equal seeds yield equal streams. *)
val create : int64 -> t

(** [of_key seed key] derives a generator from [seed] and a string [key]
    (e.g. an operator name), so distinct operators get decorrelated streams
    while remaining reproducible. *)
val of_key : int64 -> string -> t

(** [next_int64 t] advances the state and returns 64 uniformly random bits. *)
val next_int64 : t -> int64

(** [float t] draws uniformly from [0, 1). *)
val float : t -> float

(** [keep_at state i ~p ~scale] is the dropout keep value of draw [i] of
    the stream whose counter is [state] (see {!state}), without walking
    the stream: splitmix64 is counter-based, so draw [i] is a pure
    finalization of [state + (i+1)*gamma]. It is [0.0] when that draw is
    below [p] (exactly when the [(i+1)]-th {!bernoulli}[ ~p] call would
    say [true]), else [scale]. Every dropout mask in the repository is
    generated through it, so masks drawn in any order agree bitwise
    with a sequential walk. *)
val keep_at : int64 -> int -> p:float -> scale:float -> float

(** [uniform t ~lo ~hi] draws uniformly from [lo, hi). *)
val uniform : t -> lo:float -> hi:float -> float

(** [gaussian t] draws from the standard normal distribution (Box–Muller). *)
val gaussian : t -> float

(** [bernoulli t ~p] is [true] with probability [p]. *)
val bernoulli : t -> p:float -> bool

(** [int t ~bound] draws uniformly from [0, bound). [bound] must be > 0. *)
val int : t -> bound:int -> int

(** [split t] derives an independent generator, advancing [t]. *)
val split : t -> t

(** [hash64 key] hashes a string to 64 bits (FNV-1a), used for deterministic
    per-configuration perturbations in the cost model. *)
val hash64 : string -> int64

(** [state t] / [set_state t s] expose the raw splitmix64 counter so
    checkpoints can save and bitwise-restore a generator mid-stream. *)
val state : t -> int64

val set_state : t -> int64 -> unit

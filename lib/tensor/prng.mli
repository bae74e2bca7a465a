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
    defined by it (and drawn by {!keep_fill}, which equals it bitwise), so
    masks drawn in any order agree bitwise with a sequential walk. *)
val keep_at : int64 -> int -> p:float -> scale:float -> float

(** [keep_fill dst ~at ~n state ~e0 ~p ~scale] sets [dst.(at + i)] to
    [keep_at state (e0 + i) ~p ~scale] for [i] in [[0, n)], bitwise, in
    one C loop that allocates nothing.

    It compares integers, not floats. [keep_at] drops draw [z] when
    [unit_float z < p], with [unit_float z = (z lsr 11) *. 2^-53]. Both
    sides are exact: [z lsr 11 < 2^53] converts to a float exactly, and a
    power-of-two scaling of [p] is exact. For an integer [u] and a real
    [t], [u < t] exactly when [u < ceil t]. So the draw drops exactly when
    [z lsr 11 < ceil (p *. 2^53)] (clamped to [[0, 2^53]]; a NaN [p] drops
    nothing, as [keep_at]'s comparison does), and each element is
    [keep_at]'s. Every dropout mask and every in-kernel dropout of the
    library is drawn this way. Raises [Invalid_argument] on a range
    outside [dst]. *)
val keep_fill :
  float array ->
  at:int ->
  n:int ->
  int64 ->
  e0:int ->
  p:float ->
  scale:float ->
  unit

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

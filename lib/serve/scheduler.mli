(** Dynamic micro-batching scheduler over KV-cached decoding.

    Bounded admission queue; cold batches form under a
    [max_batch]/[max_queue_delay] policy while running batches absorb
    newcomers as slots free (continuous batching). Requests carry optional
    deadlines: lapsed requests are shed with a structured rejection, and
    in real-clock mode each decode step runs under [Pool.with_deadline]
    of the tightest remaining margin — an aborted step commits nothing
    (K/V appends are transactional). Repeated misses halve the batch cap;
    sustained clean steps grow it back (AIMD). *)

type policy = {
  max_batch : int;
  max_queue_delay : float;  (** seconds a cold batch may wait to fill *)
  queue_capacity : int;
  degrade_after : int;  (** consecutive miss-steps before halving *)
  recover_after : int;  (** consecutive clean steps before growing *)
}

val default_policy : policy

type request = private {
  id : int;
  prompt : int array;
  max_new : int;
  deadline : float option;
  arrival : float;
}

type rejection =
  | Queue_full of { depth : int; capacity : int }
  | Shed_deadline of { waited : float }

type completion = {
  c_id : int;
  c_tokens : int array;
  c_latency : float;
  c_wait : float;
  c_late : bool;
}

type event = Completed of completion | Rejected of int * rejection

type t

(** The serving model must have [dropout_p = 0]. [step_cost] is the
    simulated per-step service time (defaults to a dispatch overhead plus
    a term proportional to batch x cached length — time proportional to
    bytes moved); ignored in real-clock mode. [create] resolves the
    model's decode plans for every batch up to [max_batch]. *)
val create :
  ?policy:policy -> ?step_cost:(batch:int -> max_len:int -> float)
  -> clock:Clock.t -> Transformer.Model.t -> t

(** [submit t ~prompt ~max_new ?deadline_in ()] offers a request now (on
    the scheduler's clock); [deadline_in] is relative. [Error] is the
    immediate admission refusal (queue full). *)
val submit :
  t -> prompt:int array -> max_new:int -> ?deadline_in:float -> unit
  -> (int, rejection) result

(** One scheduling turn: shed lapsed work, admit, and run one batch step
    if possible. [`Idle_until ts]: nothing can happen before [ts] (move
    the clock). [`Drained]: no work left. *)
val tick : t -> [ `Stepped | `Idle_until of float | `Drained ]

(** Run until drained (assumes no further arrivals). *)
val drain : t -> unit

val metrics : t -> Metrics.t

(** Completions and rejections, oldest first. *)
val events : t -> event list

val queue_depth : t -> int
val active_count : t -> int

(** Current (possibly degraded) batch cap. *)
val current_max_batch : t -> int

val idle : t -> bool

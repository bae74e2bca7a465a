(** A small but complete BERT-style model: token embedding, a stack of
    encoder layers, and a (weight-tied) output projection to the
    vocabulary. This is the substrate of the end-to-end training example —
    the paper's optimized layers "can be extended to support a full
    training pipeline by stacking" (§VI-C). *)

(** The plans the model has resolved so far: each training geometry's
    forward/backward pair ({!precompile}, {!forward_with}) and each batch
    size's {!decode_plans}, under keys that keep the two kinds apart. *)
type held_plans

type t = {
  hp : Hparams.t;
  vocab : int;
  n_layers : int;
  embedding : Dense.t;  (** [v; i] — also the tied output head *)
  layer_params : (string * Dense.t) list array;
  held_plans : held_plans;
}

val create : ?n_layers:int -> ?vocab:int -> Hparams.t -> t

(** What one layer's forward leaves for its backward plan, which runs on
    [saved], the layer params and [d_y]. *)
type layer_cache = {
  saved : (string * Dense.t) list;  (** [x] + what the backward reads *)
  backward_plan : Compile.Compiled.plan;
}

type cache = {
  tokens : int array array;  (** [batch][seq] *)
  x0 : Dense.t;  (** embedded input [i, b, j] *)
  layers : layer_cache array;  (** one per layer, bottom first *)
  y : Dense.t;  (** final hidden states *)
  logits : Dense.t;  (** [v, b, j] *)
}

(** [forward m ~tokens] embeds, runs every layer forward, and projects. *)
val forward : t -> tokens:int array array -> cache

type grads = {
  d_embedding : Dense.t;
  d_layers : (string * Dense.t) list array;
}

(** [backward m cache ~d_logits] backpropagates through the head and every
    layer, returning parameter gradients and the input-embedding gradient
    (already scattered into [d_embedding]). Each layer is one
    {!Compile.Compiled.execute} of the backward plan its forward chose, so
    the backward follows the forward's activation and masking. *)
val backward : t -> cache -> d_logits:Dense.t -> grads

(** [cross_entropy ~logits ~targets] is the mean token-level cross-entropy
    and its gradient with respect to the logits. *)
val cross_entropy :
  logits:Dense.t -> targets:int array array -> float * Dense.t

(** [sgd_step m grads ~lr] updates all parameters in place. *)
val sgd_step : t -> grads -> lr:float -> unit

(** Adam optimizer state (first/second moment per parameter). *)
type adam_state

val adam_init : t -> adam_state

(** [adam_step m state grads ~lr] performs one bias-corrected Adam update
    in place (defaults: beta1 0.9, beta2 0.999, eps 1e-8 — the BERT
    pretraining settings). *)
val adam_step :
  ?beta1:float -> ?beta2:float -> ?eps:float -> t -> adam_state -> grads
  -> lr:float -> unit

(** {1 Snapshot / restore}

    Plain-data, marshalable copies of every parameter (and Adam moment)
    buffer, used by the training loop's crash-safe step checkpoints.
    Restoring blits into the live tensors in place, so aliases — the
    weight-tied output head reads [embedding] itself — stay intact, and a
    restored model is bitwise identical to the one snapshotted. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Raises [Invalid_argument] when the snapshot's buffer sizes or layer
    structure do not match the model. *)

type adam_snapshot

val adam_snapshot : adam_state -> adam_snapshot
val adam_restore : adam_state -> adam_snapshot -> unit

(** [parameter_count m] counts learnable scalars. *)
val parameter_count : t -> int

(** {1 Inference: KV-cached incremental decoding}

    A [session] holds one sequence's per-layer K/V caches ({!Mha.cache}).
    [decode_batch] advances a ragged batch of sessions one token each.
    Every layer writes its new K/V column in place past the committed
    prefix, and the columns are committed ({!Mha.commit}) only after the
    whole stack succeeds, so an aborted step (crash, deadline) leaves
    sessions untouched. Decoding requires [dropout_p = 0] and is bitwise
    equal, per column, to [forward_with ~causal:true ~activation:`Gelu]
    over the full prefix. *)

(** [precompile ?causal ?activation m ~batch ~seq] resolves a layer
    geometry's forward and backward plans before the hot loop starts and
    holds them in [m]; {!forward_with} and {!backward} then neither
    compile nor look up a plan. Redundant but harmless when omitted — the
    first forward resolves and holds the same plans. *)
val precompile :
  ?causal:bool -> ?activation:[ `Gelu | `Relu ] -> t
  -> batch:int -> seq:int -> unit

(** [forward_with ?causal ?activation m ~tokens] generalizes {!forward}:
    batch/seq follow the token array and the layer program can be the
    causal (decoder) block. [forward] is [forward_with] at the defaults.
    Each layer's forward is a fused, memory-planned {!Compile.Compiled}
    plan that keeps exactly the containers its backward reads (see
    {!layer_cache}); the forward and backward plans are resolved once per
    geometry, held in the model, and executed per layer. *)
val forward_with :
  ?causal:bool -> ?activation:[ `Gelu | `Relu ] -> t
  -> tokens:int array array -> cache

type session

val new_session : t -> session

(** Tokens decoded into the session so far. *)
val session_len : session -> int

(** [decode_batch m sessions ~tokens] feeds [tokens.(b)] to
    [sessions.(b)]; returns logits, dims [(v, b, j=1)]. Each layer runs
    the two {!decode_plans}, with the cached attention ({!Mha.attend},
    reading every session's cache in place) between them as the only
    step outside a plan. Raises [Invalid_argument] when a session appears
    twice in [sessions]. *)
val decode_batch : t -> session array -> tokens:int array -> Dense.t

(** [decode_plans m ~batch] is the pair of plans every layer of a decode
    step of [batch] sessions runs, sliced from {!Decoder.program}'s
    forward at [seq = 1]: [qkv] and the input biases (keeping
    [qqb]/[kkb]/[vvb]), then [out] through [ln2] (reading [gam] and [x],
    keeping [y]). The first call for a batch size compiles them or finds
    them in the plan cache; [m] then holds them, so later steps neither
    compile nor look up. *)
val decode_plans :
  t -> batch:int -> Compile.Compiled.plan * Compile.Compiled.plan

(** [logits_column logits ~b] is slot [b]'s vocabulary column at the last
    position, read in place through the tensor's strides. Raises
    [Invalid_argument] when [b] is not a slot of [logits]. *)
val logits_column : Dense.t -> b:int -> float array

(** [decode_oracle m ~prompt] recomputes the whole causal prefix and
    returns the final position's vocabulary column — the oracle the cached
    path must match bitwise. *)
val decode_oracle : t -> prompt:int array -> float array

(** Greedy next-token choice; ties break to the lowest index. *)
val argmax : float array -> int

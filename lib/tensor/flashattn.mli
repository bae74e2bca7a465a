(** Streaming tiled attention: QK^T -> softmax -> V as one cache-resident
    kernel (the paper's flagship data-movement fusion applied to the
    attention interior).

    The naive chain materializes the full L_q x L_k score matrix four
    times over (scores, softmax, dropout mask, dropped probabilities) and
    re-reads it for the V contraction — O(L^2) bytes moved per head each
    direction. [forward] instead streams KV tiles against resident Q
    tiles with an online softmax (running row max / sum renormalization),
    so the scratch working set is O(tile * d_head), independent of L^2.
    [backward] recomputes tile scores on the fly from Q/K and the saved
    per-row logsumexp statistics, producing dQ/dK/dV without ever storing
    the L^2 probabilities.

    Numerics contract: with [kv_tile >= L_k] the forward reproduces the
    naive einsum + softmax(+mask) + dropout + einsum chain {b bitwise}
    (same operation order: ascending-k accumulation, [-1.0 *. m] sign
    flips, per-element normalization before the V products). With smaller
    tiles the online renormalization reassociates the same sums, so
    results agree within a few ulps per row. Dropout is counter-based
    ({!Prng.float_at}): tiles draw mask elements at arbitrary positions
    yet agree bitwise with the sequential mask walk of
    [Elementwise.dropout_mask].

    Parallelism: the forward shards over (head, batch, Q-tile), the
    backward over (head, batch); work items write disjoint output slabs
    and draw scratch from the domain-local {!Arena}, so parallel runs are
    bitwise identical to serial ones. *)

(** Axis names binding q/k/v tensors to kernel roles. [q] carries
    (feat_qk, heads, batch, q_seq), [k] (feat_qk, heads, batch, k_seq),
    [v] (feat_v, heads, batch, k_seq) — any storage order. *)
type axes = {
  feat_qk : Axis.t;  (** p: query/key feature *)
  feat_v : Axis.t;  (** w: value feature *)
  heads : Axis.t;  (** h *)
  batch : Axis.t;  (** b *)
  q_seq : Axis.t;  (** j *)
  k_seq : Axis.t;  (** k *)
}

(** The paper's axis convention: p/w/h/b/j/k. *)
val paper_axes : axes

(** Counter-based dropout on the post-softmax probabilities, identical to
    the mask [Elementwise.dropout_mask ~seed ~name:key dims ~p] draws.
    [dims] must be exactly [(heads; batch; q_seq; k_seq)] with full
    extents — the row-major order the sequential mask walk uses. *)
type dropout = {
  p : float;
  seed : int64;
  key : string;  (** the dropout operator name the mask stream is keyed by *)
  dims : (Axis.t * int) list;
}

(** {1 Tile defaults} *)

(** The tile shape used when [?q_tile]/[?kv_tile] are omitted: (32, 128).
    Callers that need the bitwise exact mode pass [~kv_tile] >= L_k. *)
val default_tiles : int * int

(** {1 Tile-visit counters} *)

type counters = { tiles_visited : int; tiles_skipped : int }

val counters : unit -> counters
(** Cumulative (KV-tile x Q-row-range) visits and causal/ragged skips
    since the last {!reset_counters} — observability for the per-tile
    mask resolution. Atomically updated, so parallel runs count too. *)

val reset_counters : unit -> unit

(** {1 The kernel} *)

val forward :
  ?axes:axes ->
  ?q_tile:int ->
  ?kv_tile:int ->
  ?causal:bool ->
  ?valid:int array ->
  ?dropout:dropout ->
  ?stats:bool ->
  prescale:float ->
  q:Dense.t ->
  k:Dense.t ->
  v:Dense.t ->
  unit ->
  Dense.t * Dense.t option
(** [forward ~prescale ~q ~k ~v ()] computes
    [softmax(prescale * q.k + mask) . v] one (Q-tile x KV-tile) pair at a
    time. Returns the context (dims (feat_v, heads, batch, q_seq)) and,
    when [stats] (default [true]), the per-row logsumexp of the masked
    prescaled scores (dims (heads, batch, q_seq)) — what [backward] needs
    to recompute probabilities without the L^2 matrix.

    [causal] masks key positions [k > j] per tile: KV tiles entirely in
    the masked triangle are skipped without touching K/V. [valid.(b)]
    limits slot [b] to its first [valid.(b)] key columns (the ragged
    serving case; combines with [causal]). Rows with no valid keys yield
    zeros and a [-inf] stat (the naive chain yields NaN there; such rows
    cannot arise from the encoder/decoder graphs). [dropout] applies the
    counter-based mask to the normalized probabilities. *)

val backward :
  ?axes:axes ->
  ?causal:bool ->
  ?valid:int array ->
  ?dropout:dropout ->
  ?lse:Dense.t ->
  prescale:float ->
  q:Dense.t ->
  k:Dense.t ->
  v:Dense.t ->
  d_out:Dense.t ->
  unit ->
  Dense.t * Dense.t * Dense.t
(** [backward ~prescale ~q ~k ~v ~d_out ()] recomputes tile scores and
    probabilities on the fly and returns [(dq, dk, dv)] with dims
    (feat_qk, heads, batch, q_seq) / (feat_qk, heads, batch, k_seq) /
    (feat_v, heads, batch, k_seq). [lse] is the forward's saved stat
    (dims (heads, batch, q_seq)); when absent it is recomputed from Q/K,
    bit-for-bit the value the exact-mode forward saves. Scratch is
    O(L * d_head) per (head, batch) work item — row score/probability
    buffers and packed K/V panels — never O(L^2). *)

(** Streaming tiled attention: QK^T -> softmax -> V as one cache-resident
    kernel (the paper's flagship data-movement fusion applied to the
    attention interior).

    The naive chain materializes the full L_q x L_k score matrix four
    times over (scores, softmax, dropout mask, dropped probabilities) and
    re-reads it for the V contraction — O(L^2) bytes moved per head each
    direction. [forward] instead takes 16-row blocks of Q at a time
    against packed K/V panels of the block's unmasked key prefix, so the
    scratch working set is O(L * d_head), independent of L^2. [backward]
    recomputes scores and probabilities block by block from Q/K, producing
    dQ/dK/dV without ever storing the L^2 probabilities.

    Numerics contract: both directions are {b bitwise} equal to the naive
    einsum + softmax(+mask) + dropout + einsum chain and its backward.
    Every contraction of a block (S = Q.K^T and O = alpha.V forward; S,
    dA = dO.V^T, dQ^T = K^T.dS^T, dK += dS^T.Q and dV += alpha^T.dO
    backward) runs as a {!Gemm.gemm} into a zeroed C, which sums each
    element in ascending k from 0.0 as the naive einsum does; the
    element-wise steps between them replay the chain's own operations
    ([-1.0 *. m] sign flips, per-element normalization before the V
    products) in C row kernels built without FMA contraction. Their exp is
    the library's ({!Fmath.exp}, the one the naive softmax calls; its
    4-lane array form is bitwise its scalar form), so the probabilities
    keep the oracle's bits. dK and dV carry across blocks, so they sum
    over rows in ascending order. A row's keys past its own causal prefix
    enter the products as exact zeros, which change no bit. The backward
    recomputes each row's probabilities exactly as the forward computes
    them.
    Dropout is counter-based ({!Prng.keep_at}, drawn by {!Prng.keep_fill}
    in the row kernels): rows draw mask elements at arbitrary positions
    yet agree bitwise with the mask [Elementwise.dropout_mask]
    materializes through the same fill.

    Parallelism: the forward shards over (head, batch, 32-row Q tile)
    work items, the backward over (head, batch); items write disjoint
    output slabs and draw scratch from the domain-local {!Arena}. With a
    single item (one head and one batch slot in the backward) the kernel
    runs it inline and each GEMM shards its own rows over the workers;
    inside a worker the GEMMs run inline. Both splits keep every
    summation order, so parallel runs are bitwise identical to serial
    ones.

    Axes are the paper's names: [q] carries (p, h, b, j) — query/key
    feature, heads, batch, query position — [k] carries (p, h, b, k) and
    [v] (w, h, b, k), with k the key position and w the value feature.
    Any storage order is accepted. *)

(** Counter-based dropout on the post-softmax probabilities, identical to
    the mask [Elementwise.dropout_mask ~seed ~name:key dims ~p] draws.
    [dims] must be exactly [(h; b; j; k)] with full extents — the
    storage order the mask's draws are laid out in. *)
type dropout = {
  p : float;
  seed : int64;
  key : string;  (** the dropout operator name the mask stream is keyed by *)
  dims : (Axis.t * int) list;
}

(** {1 The kernel} *)

val forward :
  ?causal:bool ->
  ?valid:int array ->
  ?dropout:dropout ->
  prescale:float ->
  q:Dense.t ->
  k:Dense.t ->
  v:Dense.t ->
  unit ->
  Dense.t
(** [forward ~prescale ~q ~k ~v ()] computes
    [softmax(prescale * q.k + mask) . v] and returns the context, dims
    (w, h, b, j).

    [causal] masks key positions [k > j]: each row reads only its first
    [j + 1] keys, so masked scores are never computed. [valid.(b)] limits
    slot [b] to its first [valid.(b)] key columns (the ragged serving
    case; combines with [causal]). Rows with no valid keys yield zeros
    (the naive chain yields NaN there; such rows cannot arise from the
    encoder/decoder graphs). [dropout] applies the counter-based mask to
    the normalized probabilities. *)

val backward :
  ?causal:bool ->
  ?valid:int array ->
  ?dropout:dropout ->
  prescale:float ->
  q:Dense.t ->
  k:Dense.t ->
  v:Dense.t ->
  d_out:Dense.t ->
  unit ->
  Dense.t * Dense.t * Dense.t
(** [backward ~prescale ~q ~k ~v ~d_out ()] recomputes scores and
    probabilities on the fly, exactly as [forward] computes them, and
    returns [(dq, dk, dv)] with dims (p, h, b, j) / (p, h, b, k) /
    (w, h, b, k).
    Scratch is O(L * d_head) per (head, batch) work item — packed K/V
    panels, the dK/dV accumulators and block-by-key buffers for one row
    block — never O(L^2). *)

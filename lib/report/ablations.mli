(** Ablation studies for the design choices DESIGN.md calls out.

    - {b fusion x layout}: the paper's claim is that neither fusion alone
      nor layout selection alone suffices; the four quadrants quantify it.
    - {b selection}: global SSSP vs per-operator greedy best (paper §VI-A).
    - {b device sensitivity}: V100 vs A100 — a faster compute unit makes the
      network more memory-bound, so the recipe's advantage grows.
    - {b GEMM algorithm}: cuBLAS-heuristic vs exhaustive choice per
      contraction (paper §V-A). *)

type quadrant = {
  fusion : bool;
  layout : bool;
  time : float;  (** fwd+bwd seconds *)
}

(** Rows: the four quadrants; (strategy, seconds) for global selection,
    the greedy baseline and the per-operator lower bound; (device, ours,
    PyTorch seconds) at the context's hyperparameters; (contraction,
    heuristic, best seconds). *)
type t = {
  fusion_layout : quadrant list;
  selection : (string * float) list;
  devices : (string * float * float) list;
  gemm_algorithm : (string * float * float) list;
}

(** [run ctx] evaluates all four studies (CLI [ablations]). *)
val run : Context.t -> t

(** One titled table per study. *)
val render : t -> string

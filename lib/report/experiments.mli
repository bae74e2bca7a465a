(** Paper-vs-measured records for every headline claim, table and figure —
    the data behind EXPERIMENTS.md and the CLI [summary] subcommand. *)

type record = {
  id : string;  (** e.g. "table5", "claim-speedup-pt" *)
  description : string;
  paper : string;  (** the paper's reported value *)
  measured : string;  (** this reproduction's value *)
  holds : bool;  (** does the qualitative shape hold? *)
}

(** [summary ctx] computes the §VI-C headline claims: data-movement
    reduction, speedups over each baseline, the SSSP-vs-lower-bound gap and
    the cuBLAS heuristic gap. *)
val summary : Context.t -> record list

(** [b96_comparison ?device ()] re-runs PyTorch / DeepSpeed / ours at
    B=96, L=128 (the paper's second configuration where DeepSpeed and the
    recipe tie). *)
val b96_comparison : ?device:Gpu.Device.t -> unit -> record list

(** [heuristic_gap_records ctx] evaluates the cuBLAS-heuristic gap for every
    GEMM shape in the encoder (paper §V-A: up to 14.24% at FP16). *)
val heuristic_gap_records : Context.t -> record list

val render : record list -> string

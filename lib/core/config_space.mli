(** Per-operator configuration enumeration and measurement (paper §V).

    For tensor contractions, a configuration is a feasible data layout for
    each operand (role blocks — M, N, K, batch — must be contiguous, batch
    not innermost, exactly the layouts a cuBLAS strided-batched GEMM can
    consume), plus the compute unit (tensor cores vs FP16 FPUs) and the
    GEMM algorithm. For fused element-wise / normalization kernels, a
    configuration is a layout per container group (structurally identical
    containers, e.g. the Q/K/V triplet, are tied through a positional axis
    isomorphism), a vectorization axis and a warp-reduction axis.

    [measure] prices one configuration on a device through the roofline
    cost model; [measure_all] sweeps the whole space — the data behind
    Fig. 4 and Fig. 5's violins and the input to configuration selection. *)

type gemm_config = {
  layout_a : Layout.t;
  layout_b : Layout.t;
  layout_c : Layout.t;
  ta : Gpu.Gemm_model.transpose;
  tb : Gpu.Gemm_model.transpose;
  use_tc : bool;
  algo : Gpu.Gemm_model.algo;
}

type fused_config = {
  group_layouts : (string * Layout.t) list;
      (** representative container of each tied group -> its layout *)
  vec_axis : Axis.t;
  warp_axis : Axis.t option;
}

type config =
  | Gemm_cfg of gemm_config
  | Fused_cfg of fused_config

type measured = {
  op_name : string;
  config : config;
  kernel : Gpu.Kernel.t;
  time : float;  (** seconds *)
  layouts : (string * Layout.t) list;
      (** resolved layout of every container the operator touches *)
}

(** [gemm_configs program op] enumerates feasible GEMM configurations.
    Raises [Invalid_argument] if [op] is not a contraction. *)
val gemm_configs : Ops.Program.t -> Ops.Op.t -> gemm_config list

(** [fused_configs program op] enumerates fused-kernel configurations for a
    non-contraction (possibly fused) operator. *)
val fused_configs : Ops.Program.t -> Ops.Op.t -> fused_config list

(** [configs program op] dispatches on the operator kind. *)
val configs : Ops.Program.t -> Ops.Op.t -> config list

(** [measure ?quality ~device program op config] builds the kernel
    descriptor and times it. [quality] (default 1.0) scales achievable
    bandwidth, modeling non-specialized framework kernels. *)
val measure :
  ?quality:float -> device:Gpu.Device.t -> Ops.Program.t -> Ops.Op.t -> config
  -> measured

val measure_all :
  ?quality:float -> device:Gpu.Device.t -> Ops.Program.t -> Ops.Op.t
  -> measured list

(** [config_key config] is a canonical identity string covering every knob
    (layouts included). It keys the fault model's deterministic draws and
    the performance database's quarantine records. *)
val config_key : config -> string

type measure_error = {
  failed_op : string;
  failed_config : string;  (** [config_key] of the failing configuration *)
  failure : Gpu.Faults.failure;
  attempt : int;
}

(** [measure_faulty ?quality ?attempt ~faults ~device program op config]
    is [measure] with the fault model injected beneath it: the clean
    measurement is taken and then perturbed or discarded according to
    [faults]. With [Gpu.Faults.none] this is exactly [measure] (no draw is
    even made). [attempt] decorrelates retries. *)
val measure_faulty :
  ?quality:float -> ?attempt:int -> faults:Gpu.Faults.spec
  -> device:Gpu.Device.t -> Ops.Program.t -> Ops.Op.t -> config
  -> (measured, measure_error) result

(** [default_config program op] is the framework-natural configuration:
    canonical container layouts, heuristic GEMM algorithm, tensor cores
    when eligible, innermost-axis vectorization. *)
val default_config : Ops.Program.t -> Ops.Op.t -> config

(** [tuned_default_config ~device program op] keeps the framework-natural
    layouts but searches the GEMM algorithm exhaustively — the behaviour of
    a hand-tuned library like DeepSpeed (manual kernels, fixed layouts,
    carefully chosen algorithms). *)
val tuned_default_config :
  device:Gpu.Device.t -> Ops.Program.t -> Ops.Op.t -> config

(** [resolve_layouts program op config] expands a configuration to the
    layout of every container (sibling groups resolved through the
    positional isomorphism). *)
val resolve_layouts :
  Ops.Program.t -> Ops.Op.t -> config -> (string * Layout.t) list

(** [iso_layout ~rep_dims ~target_dims layout] transports a layout of the
    representative container onto a structurally identical sibling. *)
val iso_layout :
  rep_dims:(Axis.t * int) list -> target_dims:(Axis.t * int) list -> Layout.t
  -> Layout.t

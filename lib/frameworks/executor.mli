(** Execution plans: a functional program paired with the kernel stream a
    framework would launch for it, plus per-kernel dispatch overhead.

    All baselines and the recipe-optimized implementation reduce to plans,
    so they are timed by the same simulator and can be checked for
    numerical agreement through the same interpreter. *)

type workload = Encoder_layer | Mha_block

type plan = {
  name : string;
  program : Ops.Program.t;  (** functional semantics *)
  kernels_forward : Gpu.Kernel.t list;
  kernels_backward : Gpu.Kernel.t list;
  dispatch_overhead : float;  (** CPU-side cost per kernel, s *)
}

type report = {
  plan : plan;
  forward : Gpu.Simulator.run;
  backward : Gpu.Simulator.run;
  forward_time : float;  (** kernels + dispatch, s *)
  backward_time : float;
}

val total_time : report -> float

(** [time_plan device plan] runs the kernel stream through the simulator. *)
val time_plan : Gpu.Device.t -> plan -> report

(** Per-op numerical scan level. [Check_nan] (the default) flags NaN,
    which is never legitimate in these programs; [Check_finite]
    additionally flags infinities (note that masked decoder attention
    legitimately materializes [-inf] logits, so [Check_finite] is only for
    programs without additive masks). Unlike {!Guard}, which scans only
    fast-kernel outputs and heals through the naive oracle, this scan
    checks every container every op writes and names the op that wrote
    the bad value. *)
type numeric_check = No_check | Check_nan | Check_finite

(** Raised by {!run} when an operator writes a non-finite value: names
    the offending operator, the container, and the value class. *)
exception
  Numerical_fault of { fault_op : string; container : string; value : string }

(** {1 Resilient execution}

    A {!resilience} policy bounds and supervises a run: a whole-run
    deadline, a per-kernel time budget, op-level retries, and whether
    guarded failures fall back to the naive oracle. The kernel-guard
    level is the ambient one: scope it with [Guard.with_level]. *)

type resilience = {
  deadline : float option;  (** whole-run wall-clock budget, seconds *)
  kernel_timeout : float option;  (** per guarded kernel launch, seconds *)
  retries : int;  (** op-level re-attempts on recoverable failure *)
  fallback : bool;  (** naive-oracle fallback on guarded failures *)
}

(** No deadline, no kernel budget, one retry, fallback on. *)
val default_resilience : resilience

(** What the run's resilience machinery engaged — so a run that survived
    injected faults is distinguishable from one that never saw any. *)
type run_report = {
  rr_fallbacks : Guard.event list;  (** every fallback, execution order *)
  rr_retried : (string * int) list;  (** op name, retries it consumed *)
  rr_quarantine : Guard.entry list;  (** quarantine state after the run *)
  rr_elapsed : float;  (** wall-clock seconds *)
}

val pp_run_report : Format.formatter -> run_report -> unit

(** [run ?check ?resilience regime plan inputs] compiles the plan's
    program under [regime] through {!Compile.Compiled} (structurally
    identical runs hit the plan cache and re-run zero passes) and
    executes it, validating every container an operator writes according
    to [check] (default [Check_nan]). The plan runs the full pipeline, so
    only terminal outputs and the regime's [keep] (fused or not) survive;
    it executes under the ambient backend mode, domain count and guard
    level. The uncompiled reference is [Ops.Program.run], which retains
    every intermediate. Without [resilience] no
    retry, deadline or kernel budget applies and the ambient guard
    fallback setting holds. [Pool.Cancelled] and a blown {e run} deadline
    ([Pool.Deadline_exceeded]) propagate; kernel-level failures are
    absorbed per policy. *)
val run :
  ?check:numeric_check ->
  ?resilience:resilience ->
  Compile.Regime.t ->
  plan ->
  (string * Dense.t) list ->
  Ops.Op.env * run_report

(** [default_kernels ?quality program ops ~device] builds one kernel per
    operator using the framework-natural configuration. *)
val default_kernels :
  ?quality:float -> device:Gpu.Device.t -> Ops.Program.t -> Ops.Op.t list
  -> Gpu.Kernel.t list

val workload_to_string : workload -> string

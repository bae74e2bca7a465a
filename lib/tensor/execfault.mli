(** Execution-fault injection points for the resilient runtime.

    The seeded fault model lives above this library (in [Gpu.Faults]); it
    installs closures here and the worker pool / kernel guard call them at
    two well-defined places: once per guarded kernel launch on the fast
    backend and once per claimed pool chunk. With no hooks installed every call site is a few
    loads, so the clean path is effectively free.

    Installation is process-global (one campaign at a time), mirroring the
    {!Fastmode} switches. *)

exception Injected_crash of { kernel : string; instance : int; chunk : int }
(** Raised by the installed fault model to simulate a kernel or worker
    crash. [chunk] is [-1] for kernel-level crashes. *)

type hooks = {
  on_kernel : kernel:string -> instance:int -> unit;
      (** called before a guarded kernel runs; may raise or hang
          cooperatively (sleep in slices, polling {!Pool.check_cancel}) *)
  on_chunk : label:string -> chunk:int -> unit;
      (** called by a pool worker before running a claimed chunk *)
  corrupt : kernel:string -> instance:int -> float array -> unit;
      (** may poison a kernel's freshly computed output in place *)
}

val with_hooks : hooks -> (unit -> 'a) -> 'a
(** [with_hooks h f] installs [h] process-wide, runs [f] and removes the
    hooks afterwards (exception-safe). Installing resets the per-kernel
    instance counters, so a reinstalled campaign reproduces its draws
    exactly. *)

val enter : kernel:string -> int
(** Guard-side entry: assign this launch an instance number and run the
    [on_kernel] hook (which may raise). Returns the instance, or [-1] when
    no hooks are installed. *)

val on_chunk : label:string -> chunk:int -> unit
(** Pool-side entry: called before a claimed chunk body runs. *)

val corrupt_output : kernel:string -> instance:int -> float array -> unit
(** Guard-side exit: offer a kernel's output buffer to the fault model
    (no-op when [instance] is [-1] or no hooks are installed). *)

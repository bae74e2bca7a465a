(** First-class compiled plans.

    [compile regime program] lowers a program through the standard pass
    pipeline ({!Passes.pipeline}) and returns a {!plan}: the staged
    program plus every non-program artifact the passes produced — the
    static memory plan, recognized attention windows, and a per-pass
    stats trace. Plans are cached in an LRU keyed by (structural program
    fingerprint x regime x name table), so consumers that rebuild
    structurally-identical programs
    every step (the training loop, serving sessions) compile once and
    execute many: a cache hit re-runs zero passes (observable through
    {!pass_runs}).

    [~verify:true] proves the lowering: after {e every} pass the staged
    program is executed and checked against the uncompiled interpreter
    ([Ops.Program.run] on the source), both under the ambient backend
    mode. The check is bitwise for every
    container, streaming-attention windows included: their forward and
    backward reproduce the member chains they replace bit for bit. *)

type plan = {
  source : Ops.Program.t;
  program : Ops.Program.t;  (** after the pipeline *)
  regime : Regime.t;
  fingerprint : string;
  cache_key : string;
  trace : Pass.stat list;  (** one entry per executed pass, in order *)
  memplan : Ops.Memplan.t option;
  attn_sites : Substation.Fusion.attn_site list;
  stages : (string * Ops.Program.t) list;  (** with [~keep_stages] *)
  verified : bool;
}

(** Raised by [~verify:true] when a pass changes a container: its value
    differs from the uncompiled interpreter's in some bit. *)
exception Verification_failed of { vf_pass : string; vf_container : string }

(** Compile [program] under [regime]. [device] and [params] are accepted
    and ignored, kept only for perfbench: kernels choose their own tiles,
    so no pass depends on a device, and weights are stored in the layout
    their GEMMs read, so no pass depends on which containers are weights.
    [name_table] names the fused kernels (it is part of the cache key).
    [verify_inputs] supplies the verification run's inputs
    (synthesized deterministically from the program's pinned input
    containers when omitted). [keep_stages] records each pass's output
    program (for per-stage SDFG export). Every compile consults and fills
    the LRU plan cache (32 plans); [~verify:true] always recompiles (and
    re-proves) but still caches the result. *)
val compile :
  ?device:Gpu.Device.t ->
  ?name_table:(string list * string) list ->
  ?params:string list ->
  ?verify:bool ->
  ?verify_inputs:(string * Dense.t) list ->
  ?keep_stages:bool ->
  Regime.t ->
  Ops.Program.t ->
  plan

(** Execute a plan under the ambient backend mode, domain count and
    guard level: interprets through the memory plan when one was produced
    (else op-for-op). [check_op op env] runs after each
    op with its outputs still present (numerical guards); [wrap_op op
    body] wraps each op's execution + check (resilience retries) and must
    call [body] exactly once on the success path. *)
val execute :
  ?check_op:(Ops.Op.t -> Ops.Op.env -> unit) ->
  ?wrap_op:(Ops.Op.t -> (unit -> unit) -> unit) ->
  plan ->
  (string * Dense.t) list ->
  Ops.Op.env

(** Does nothing; kept only for perfbench. Cached plans hold container
    names, not values, and nothing caches a weight's contents, so an
    in-place weight update needs no call. *)
val invalidate_weights : Dense.t list -> unit

(** {1 Cache and counters} *)

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  compiles : int;  (** full pipeline runs (cache misses + verifies) *)
}

val cache_stats : unit -> cache_stats
val clear_cache : unit -> unit

(** Total passes executed process-wide — a cache hit adds zero. *)
val pass_runs : unit -> int

(** {1 Reporting} *)

val pp_trace : Format.formatter -> plan -> unit
val trace_to_string : plan -> string

(** The standard pass pipeline: canonicalize -> dead-code/CSE ->
    attention windowing -> generic fusion -> memory planning.

    Attention windowing runs {e before} the generic engine (window
    recognition needs the raw [Op.sem] chains, which fusion erases); the
    fused attention ops are contraction barriers to the generic engine,
    so the two-stage rewrite reproduces [Fusion.fuse ~attention:true]
    exactly. *)

val canonicalize : Pass.t
val dce_cse : Pass.t
val attention_window : Pass.t
val fusion : Pass.t
val memory_plan : Pass.t

(** The passes above, in lowering order. *)
val pipeline : Pass.t list

(** [live_out ~keep p]: the containers that escape to the caller — [keep]
    plus every container written but never read by any op (the repo's
    terminal-output convention, shared with [Ops.Memplan]). *)
val live_out : keep:string list -> Ops.Program.t -> string list

(** The lowering passes, in the order [Compiled.compile] runs them:
    canonicalize -> attention windowing -> generic fusion -> memory
    planning. Each is a plain function that returns its artifact and its
    trace note ([""] when it has nothing to report).

    Attention windowing runs {e before} the generic engine (window
    recognition needs the raw [Op.sem] chains, which fusion erases); the
    fused attention ops are contraction barriers to the generic engine,
    so the two-stage rewrite reproduces [Fusion.fuse ~attention:true]
    exactly.

    [keep] names containers the caller reads back. Each survives every
    pass: no attention window forms around one of its score containers,
    fusion treats it as read outside its group, and memory planning never
    drops it. *)

(** Validates the program and drops container declarations no op
    touches. Raises [Invalid_argument] on an invalid program. *)
val canonicalize : Ops.Program.t -> Ops.Program.t * string

(** Replaces every recognized attention window whose score containers
    [keep] does not name by one streaming fused op
    ({!Substation.Fusion.prefuse_attention}); returns the sites. *)
val attention_window :
  name_table:(string list * string) list ->
  keep:string list ->
  Ops.Program.t ->
  (Ops.Program.t * Substation.Fusion.attn_site list) * string

(** The generic fusion engine ({!Substation.Fusion.fuse}). *)
val fusion :
  name_table:(string list * string) list ->
  keep:string list ->
  Ops.Program.t ->
  Ops.Program.t * string

(** The static memory plan ({!Ops.Memplan.plan}); the program is left as
    it is. *)
val memory_plan : keep:string list -> Ops.Program.t -> Ops.Memplan.t * string

(** [live_out ~keep p]: the containers that escape to the caller — [keep]
    plus every container written but never read by any op (the repo's
    terminal-output convention, shared with [Ops.Memplan]). *)
val live_out : keep:string list -> Ops.Program.t -> string list

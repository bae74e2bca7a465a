(** Operator fusion (paper §IV).

    The engine works on the operator list of a program in schedule order.
    Tensor contractions are fusion barriers (cuBLAS cannot host arbitrary
    fused operators, §IV-C), as is the forward/backward boundary. Within
    each region between barriers, operators are greedily merged while their
    iteration spaces remain compatible ({!Ops.Iteration.compatible}): the
    same independent extents, or differing only by a reduction — covering
    the paper's four structural patterns, including sibling operators that
    share no data (fusing them still saves kernel launches).

    A final "sink" pass implements the scheduling freedom the paper's BDRB
    kernel exhibits: a trailing group whose outputs are terminal (weight
    gradients) may move past a contraction barrier into the next region and
    merge with a group reducing over the same extents — that is how the
    backward bias-dW of the second linear layer joins the dropout/ReLU/bias
    group despite the GEMMs between them. *)

(** The structural fusion patterns of the paper's Fig. 3 (plus the
    warp-sharing case its §IV text describes for two-dimensional
    reductions). Each non-first member of a group joined it through one. *)
type pattern =
  | Producer_consumer_map
      (** pattern 1: an element-wise chain (bias → dropout → residual) *)
  | Map_into_reduction
      (** pattern 2: a map whose output feeds a reduction (… → layernorm) *)
  | Reduction_into_map
      (** pattern 3: a reduction whose result a map consumes (softmax → dropout) *)
  | Sibling
      (** pattern 4: operators with no dataflow between them, fused to share
          one kernel launch (the three attention input biases) *)
  | Warp_shared_reduction
      (** a terminal reduction sunk past a contraction barrier into a group
          reducing over the same extents (how bias-dW joins BDRB) *)
  | Streaming_attention
      (** the attention interior (qkt/softmax/dropout/gamma and its six
          backward mirrors) fused across its contraction barriers into one
          cache-resident streaming kernel ({!Flashattn}), eliding the
          L x L score containers *)

val pattern_to_string : pattern -> string

type group = {
  members : Ops.Op.t list;  (** original operators, in execution order *)
  fused : Ops.Op.t;  (** the single fused operator *)
  steps : (string * pattern) list;
      (** how each non-first member joined (member name, pattern) *)
}

(** [fuse ?name_table ?attention ?keep program] rewrites the program, replacing
    each fused group by one operator. [name_table] maps member-name sets to
    canonical kernel names (e.g. {!Transformer.Encoder.kernel_names});
    unnamed groups get the concatenation of member names.

    [attention] (default [false]) additionally recognizes the attention
    interior — qkt / softmax(+causal) / dropout / gamma and, when present,
    their six backward mirrors — and pins each window as one fused group
    running the streaming tiled kernel ({!Flashattn}, bitwise equal to
    the member chain in both directions) under the kernel guard, with
    sequential member replay as the oracle fallback (the backward's replay
    first re-runs the forward members to rematerialize the elided score
    containers). Windows whose intermediates leak outside the pair are
    left to the generic engine. Opt-in because the streaming kernel
    elides the L x L score containers from the environment.

    [keep] (default [[]]) names containers the caller reads after the run:
    each counts as read outside every group, so no fused kernel elides it
    and no attention window forms around it. *)
val fuse : ?name_table:(string list * string) list -> ?attention:bool
  -> ?keep:string list -> Ops.Program.t -> Ops.Program.t

(** [groups ?name_table ?attention ?keep program] exposes the grouping for
    inspection; singleton groups are included (their [fused] op is the
    original). *)
val groups : ?name_table:(string list * string) list -> ?attention:bool
  -> ?keep:string list -> Ops.Program.t -> group list

(** {2 Staged attention windowing (compiler pipeline)} *)

(** Where a streaming-attention window was recognized: the fused op's name
    plus its geometry. *)
type attn_site = {
  site_op : string;  (** name of the fused op in the rewritten program *)
  site_kind : [ `Fwd | `Bwd ];
  site_writes : string list;
      (** the window's external outputs — fwd: the attention output;
          bwd: [dq; dk; dv] *)
  site_heads : int;
  site_batch : int;
  site_seq_q : int;
  site_seq_k : int;
  site_d_head : int;  (** the q/k feature extent (p) *)
  site_causal : bool;
}

(** [prefuse_attention ?keep program] replaces only the recognized attention
    windows with their streaming fused ops ({!Flashattn} under the kernel
    guard, member replay as oracle), leaving every other operator
    untouched, and reports the window sites. The generic engine
    ({!fuse} without [?attention], or the pipeline's later fusion pass)
    treats the fused ops as contraction barriers, so running it afterwards
    reproduces exactly [fuse ~attention:true]. Returns the program
    unchanged (physically the same ops list content, a new [Program.t])
    when no window matches, or when [keep] names one of a window's score
    containers. *)
val prefuse_attention :
  ?name_table:(string list * string) list ->
  ?keep:string list ->
  Ops.Program.t ->
  Ops.Program.t * attn_site list

(** [external_reads program members] / [external_writes program members]:
    the containers a kernel fusing [members] must actually load / store —
    interim containers (produced and consumed strictly inside the group)
    are elided, unless [keep] names them. These determine the fused
    kernel's data movement. *)
val external_reads : Ops.Program.t -> Ops.Op.t list -> string list

val external_writes :
  ?keep:string list -> Ops.Program.t -> Ops.Op.t list -> string list

(** [movement_saved ~device_bytes_per_elem program] compares the total data
    movement of the program's operators before and after fusion: the
    paper's §VI-C accounting that yields the ~22.91% reduction. Returns
    [(unfused_bytes, fused_bytes)]. *)
val movement_saved :
  bytes_per_elem:int -> Ops.Program.t -> int * int

(** The operator abstraction shared by the whole reproduction.

    An operator couples (a) layout-independent functional semantics over an
    environment of named tensors, with (b) the metadata the recipe needs:
    operator class, iteration space, flop count, and — for tensor
    contractions — the GEMM role decomposition that lets the cuBLAS-model
    time it. An operator is "logically one operation" even when a framework
    implements it as several kernels (paper §III-A). *)

type env = (string, Dense.t) Hashtbl.t

(** GEMM roles inferred from an einsum: [batch] axes appear in both inputs
    and the output; [k] axes in both inputs only; [m] in input A and the
    output; [n] in input B and the output. *)
type gemm_roles = {
  a : string;  (** container name of operand A *)
  b : string;  (** container name of operand B *)
  c : string;  (** container name of the output *)
  m_axes : Axis.t list;
  n_axes : Axis.t list;
  k_axes : Axis.t list;
  batch_axes : Axis.t list;
  scale : float;
  groups : int;  (* algebraic-fusion stacking factor, 1 when unfused *)
  grouped : [ `M | `N | `K ];  (* which GEMM dimension the stacking multiplies *)
  a_list : string list;  (* all parts' A operands (layout-tied siblings) *)
  b_list : string list;  (* all parts' B operands *)
  c_list : string list;  (* all parts' outputs *)
}

type kind =
  | Gemm of gemm_roles
  | Map  (** pure element-wise *)
  | Reduce  (** reduction (+ applied map): statistical normalization *)

(** Machine-readable operator semantics. [run] closures are opaque, so the
    fused-kernel compiler ({!Fastpath}) cannot inspect them; [sem] is the
    declarative mirror it interprets. Operators without [sem] still run —
    fused groups containing one fall back to sequential member replay. *)

type elt_fn =
  | Add2  (** out = x + operand (broadcast) *)
  | Mul2  (** out = x * operand (broadcast) *)
  | Relu
  | Gelu
  | Sigmoid
  | Tanh
  | Copy
  | Relu_grad  (** out = x * [operand > 0]; operand is the forward input *)
  | Gelu_grad  (** out = x * gelu'(operand) *)
  | Sigmoid_grad  (** out = x * y * (1 - y); operand is the forward output *)
  | Tanh_grad  (** out = x * (1 - y^2) *)
  | Dropout_gen of { p : float; seed : int64; key : string }
      (** generates the mask (stored in [e_mask]), out = x * mask; [key] is
          the PRNG stream name ([Prng.of_key seed key]) — the constructing
          op's name, preserved here because fusion may rename the op while
          the mask stream must stay put *)

type elt_sem = {
  e_x : string;  (** primary (chained) input *)
  e_operand : string option;  (** second operand container *)
  e_out : string;
  e_mask : string option;  (** dropout: mask container written alongside *)
  e_dims : (Axis.t * int) list;
  e_fn : elt_fn;
}

type red_sem =
  | Softmax of {
      r_x : string;
      r_out : string;
      r_axis : Axis.t;
      r_prescale : float;
      r_causal : (Axis.t * Axis.t) option;  (** (query, key) axes *)
    }
  | Softmax_dx of {
      sd_dy : string;
      sd_y : string;
      sd_out : string;
      sd_axis : Axis.t;
      sd_prescale : float;
    }
  | Layernorm of {
      ln_x : string;
      ln_gamma : string;
      ln_beta : string;
      ln_out : string;
      ln_mean : string;
      ln_istd : string;
      ln_axis : Axis.t;
      ln_eps : float;
    }
  | Layernorm_dx of {
      ld_dy : string;
      ld_x : string;
      ld_gamma : string;
      ld_mean : string;
      ld_istd : string;
      ld_out : string;
      ld_axis : Axis.t;
    }
  | Layernorm_dw of {
      lw_dy : string;
      lw_x : string;
      lw_mean : string;
      lw_istd : string;
      lw_dgamma : string;
      lw_dbeta : string;
      lw_axis : Axis.t;
    }
  | Bias_dw of { bw_dy : string; bw_out : string; bw_axes : Axis.t list }

(** A single-part einsum, declared so structural pattern matchers (the
    attention prefuser) can recognize contraction chains without running
    them. Only attached when the part applies no axis renames. *)
type contract_sem = {
  c_spec : string;  (** einsum spec, e.g. "phbk,phbj->hbjk" *)
  c_inputs : string list;
  c_out : string;
  c_scale : float;
}

type sem = Elt of elt_sem | Red of red_sem | Contract of contract_sem

(** A vector-Jacobian-product rule: given the cotangents of (some of) the
    operator's outputs and the forward environment, return the gradient
    contribution to each read container. Containers whose cotangent is not
    needed (saved statistics, dropout masks) simply do not appear among the
    [cotangents]. Populated by the constructors; consumed by {!Autodiff}. *)
type vjp = cotangents:(string * Dense.t) list -> env -> (string * Dense.t) list

type t = {
  name : string;
  cls : Sdfg.Opclass.t;
  reads : string list;
  writes : string list;
  space : Iteration.t;
  flop : int;
  kind : kind;
  run : env -> unit;
  backward : bool;  (** belongs to the backward pass *)
  vjp : vjp option;
  sem : sem option;
}

val lookup : env -> string -> Dense.t
val store : env -> string -> Dense.t -> unit

(** [env_of_list bindings] builds an environment. *)
val env_of_list : (string * Dense.t) list -> env

(** [to_graph_op op] is the SDFG view of the operator. *)
val to_graph_op : t -> Sdfg.Graph.op

val pp : Format.formatter -> t -> unit

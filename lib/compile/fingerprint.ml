(* Structural program fingerprint: a digest over everything that
   determines a program's semantics and its compilation decisions —
   container declarations, op names/classes/reads/writes, iteration
   spaces, flop counts, GEMM role decompositions, backward flags, and the
   full declarative [Op.sem] (including dropout probabilities, seeds, and
   stream keys). Two programs with equal fingerprints are semantically
   interchangeable for the plan cache even when their [run] closures are
   distinct physical values: a caller that rebuilds a program and compiles
   it again (perfbench's per-step encoder compile, every [Executor.run])
   hits the plan of the first build. [Transformer.Model] holds its plans
   and does not look them up per step. *)

let dims buf ds =
  List.iter (fun (a, n) -> Printf.bprintf buf "%s:%d," a n) ds

let strings buf ss = List.iter (fun s -> Printf.bprintf buf "%s," s) ss

let elt_fn buf = function
  | Ops.Op.Add2 -> Buffer.add_string buf "add2"
  | Ops.Op.Mul2 -> Buffer.add_string buf "mul2"
  | Ops.Op.Relu -> Buffer.add_string buf "relu"
  | Ops.Op.Gelu -> Buffer.add_string buf "gelu"
  | Ops.Op.Sigmoid -> Buffer.add_string buf "sigmoid"
  | Ops.Op.Tanh -> Buffer.add_string buf "tanh"
  | Ops.Op.Copy -> Buffer.add_string buf "copy"
  | Ops.Op.Relu_grad -> Buffer.add_string buf "relu_grad"
  | Ops.Op.Gelu_grad -> Buffer.add_string buf "gelu_grad"
  | Ops.Op.Sigmoid_grad -> Buffer.add_string buf "sigmoid_grad"
  | Ops.Op.Tanh_grad -> Buffer.add_string buf "tanh_grad"
  | Ops.Op.Dropout_gen { p; seed; key } ->
      Printf.bprintf buf "dropout(%h,%Ld,%s)" p seed key

let red buf = function
  | Ops.Op.Softmax r ->
      Printf.bprintf buf "softmax(%s->%s,%s,%h,%s)" r.r_x r.r_out r.r_axis
        r.r_prescale
        (match r.r_causal with
        | None -> "-"
        | Some (q, k) -> q ^ "/" ^ k)
  | Ops.Op.Softmax_dx s ->
      Printf.bprintf buf "softmax_dx(%s,%s->%s,%s,%h)" s.sd_dy s.sd_y s.sd_out
        s.sd_axis s.sd_prescale
  | Ops.Op.Layernorm l ->
      Printf.bprintf buf "layernorm(%s,%s,%s->%s,%s,%s,%s,%h)" l.ln_x
        l.ln_gamma l.ln_beta l.ln_out l.ln_mean l.ln_istd l.ln_axis l.ln_eps
  | Ops.Op.Layernorm_dx l ->
      Printf.bprintf buf "layernorm_dx(%s,%s,%s,%s,%s->%s,%s)" l.ld_dy l.ld_x
        l.ld_gamma l.ld_mean l.ld_istd l.ld_out l.ld_axis
  | Ops.Op.Layernorm_dw l ->
      Printf.bprintf buf "layernorm_dw(%s,%s,%s,%s->%s,%s,%s)" l.lw_dy l.lw_x
        l.lw_mean l.lw_istd l.lw_dgamma l.lw_dbeta l.lw_axis
  | Ops.Op.Bias_dw b ->
      Printf.bprintf buf "bias_dw(%s->%s," b.bw_dy b.bw_out;
      strings buf b.bw_axes;
      Buffer.add_char buf ')'

let sem buf = function
  | None -> Buffer.add_string buf "opaque"
  | Some (Ops.Op.Elt e) ->
      Buffer.add_string buf "elt[";
      Printf.bprintf buf "%s;%s;%s;%s;" e.e_x
        (Option.value e.e_operand ~default:"-")
        e.e_out
        (Option.value e.e_mask ~default:"-");
      dims buf e.e_dims;
      Buffer.add_char buf ';';
      elt_fn buf e.e_fn;
      Buffer.add_char buf ']'
  | Some (Ops.Op.Red r) ->
      Buffer.add_string buf "red[";
      red buf r;
      Buffer.add_char buf ']'
  | Some (Ops.Op.Contract c) ->
      Printf.bprintf buf "contract[%s;" c.c_spec;
      strings buf c.c_inputs;
      Printf.bprintf buf ";%s;%h]" c.c_out c.c_scale

let kind buf = function
  | Ops.Op.Map -> Buffer.add_string buf "map"
  | Ops.Op.Reduce -> Buffer.add_string buf "reduce"
  | Ops.Op.Gemm r ->
      Printf.bprintf buf "gemm[%s,%s,%s;" r.a r.b r.c;
      strings buf r.m_axes;
      Buffer.add_char buf ';';
      strings buf r.n_axes;
      Buffer.add_char buf ';';
      strings buf r.k_axes;
      Buffer.add_char buf ';';
      strings buf r.batch_axes;
      Printf.bprintf buf ";%h;%d;%s;" r.scale r.groups
        (match r.grouped with `M -> "m" | `N -> "n" | `K -> "k");
      strings buf r.a_list;
      Buffer.add_char buf ';';
      strings buf r.b_list;
      Buffer.add_char buf ';';
      strings buf r.c_list;
      Buffer.add_char buf ']'

let op buf (o : Ops.Op.t) =
  Printf.bprintf buf "op{%s;%s;" o.name (Sdfg.Opclass.to_string o.cls);
  strings buf o.reads;
  Buffer.add_char buf ';';
  strings buf o.writes;
  Buffer.add_char buf ';';
  dims buf o.space.Ops.Iteration.independent;
  Buffer.add_char buf ';';
  dims buf o.space.Ops.Iteration.reduction;
  Printf.bprintf buf ";%d;%b;" o.flop o.backward;
  kind buf o.kind;
  Buffer.add_char buf ';';
  sem buf o.sem;
  Buffer.add_string buf "}\n"

let render (p : Ops.Program.t) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (c, ds) ->
      Printf.bprintf buf "container{%s;" c;
      dims buf ds;
      Buffer.add_string buf "}\n")
    p.Ops.Program.containers;
  List.iter (op buf) p.Ops.Program.ops;
  Buffer.contents buf

let of_program p = Digest.to_hex (Digest.string (render p))

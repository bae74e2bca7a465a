let points dims = List.fold_left (fun acc (_, d) -> acc * d) 1 dims

let make_map ~name ~reads ~writes ~dims ~flop ~backward ?vjp ?sem run =
  {
    Op.name;
    cls = Sdfg.Opclass.Elementwise;
    reads;
    writes;
    space = Iteration.pure_map dims;
    flop;
    kind = Op.Map;
    run;
    backward;
    vjp;
    sem;
  }

(* Shorthand for the declarative mirror of an element-wise op. *)
let elt ?operand ?mask ~x ~out ~dims fn =
  Op.Elt
    {
      Op.e_x = x;
      e_operand = operand;
      e_out = out;
      e_mask = mask;
      e_dims = dims;
      e_fn = fn;
    }

(* The principal-output cotangent, when the caller supplied it. *)
let cot_of name cotangents = List.assoc_opt name cotangents

let bias ~name ~x ~bias ~out dims ~bias_axes ?(backward = false) () =
  let vjp ~cotangents _env =
    match cot_of out cotangents with
    | None -> []
    | Some cot -> [ (x, cot); (bias, Dense.reduce_bcast cot bias_axes) ]
  in
  make_map ~name ~reads:[ x; bias ] ~writes:[ out ] ~dims ~flop:(points dims)
    ~backward ~vjp
    ~sem:(elt ~operand:bias ~x ~out ~dims Op.Add2)
    (fun env ->
      Op.store env out (Dense.add_bcast (Op.lookup env x) (Op.lookup env bias)))

let bias_dw ~name ~dy ~out dims ~bias_axes =
  let independent = List.filter (fun (a, _) -> List.mem a bias_axes) dims in
  let reduction = List.filter (fun (a, _) -> not (List.mem a bias_axes)) dims in
  {
    Op.name;
    cls = Sdfg.Opclass.Normalization;
    reads = [ dy ];
    writes = [ out ];
    space = Iteration.make ~independent ~reduction;
    flop = points dims;
    kind = Op.Reduce;
    run =
      (fun env ->
        Op.store env out (Dense.reduce_bcast (Op.lookup env dy) bias_axes));
    backward = true;
    vjp = None;
    sem = Some (Op.Red (Op.Bias_dw { bw_dy = dy; bw_out = out; bw_axes = bias_axes }));
  }

let relu ~name ~x ~out dims ?(backward = false) () =
  let vjp ~cotangents env =
    match cot_of out cotangents with
    | None -> []
    | Some cot ->
        [ (x, Dense.map2 (fun g v -> if v > 0.0 then g else 0.0) cot (Op.lookup env x)) ]
  in
  make_map ~name ~reads:[ x ] ~writes:[ out ] ~dims ~flop:0 ~backward ~vjp
    ~sem:(elt ~x ~out ~dims Op.Relu) (fun env ->
      Op.store env out (Dense.map (fun v -> Float.max 0.0 v) (Op.lookup env x)))

let relu_dx ~name ~dy ~x ~out dims =
  make_map ~name ~reads:[ dy; x ] ~writes:[ out ] ~dims ~flop:0 ~backward:true
    ~sem:(elt ~operand:x ~x:dy ~out ~dims Op.Relu_grad) (fun env ->
      let dy = Op.lookup env dy and x = Op.lookup env x in
      Op.store env out
        (Dense.map2 (fun g v -> if v > 0.0 then g else 0.0) dy x))

let gelu_c = sqrt (2.0 /. Float.pi)

let gelu_value x =
  let inner = gelu_c *. (x +. (0.044715 *. (x *. x *. x))) in
  0.5 *. x *. (1.0 +. tanh inner)

let gelu_grad x =
  let u = gelu_c *. (x +. (0.044715 *. (x *. x *. x))) in
  let t = tanh u in
  let du = gelu_c *. (1.0 +. (3.0 *. 0.044715 *. x *. x)) in
  (0.5 *. (1.0 +. t)) +. (0.5 *. x *. (1.0 -. (t *. t)) *. du)

let gelu ~name ~x ~out dims ?(backward = false) () =
  let vjp ~cotangents env =
    match cot_of out cotangents with
    | None -> []
    | Some cot ->
        [ (x, Dense.map2 (fun g v -> g *. gelu_grad v) cot (Op.lookup env x)) ]
  in
  make_map ~name ~reads:[ x ] ~writes:[ out ] ~dims ~flop:(8 * points dims)
    ~backward ~vjp ~sem:(elt ~x ~out ~dims Op.Gelu) (fun env ->
      Op.store env out (Dense.map gelu_value (Op.lookup env x)))

let gelu_dx ~name ~dy ~x ~out dims =
  make_map ~name ~reads:[ dy; x ] ~writes:[ out ] ~dims ~flop:(12 * points dims)
    ~backward:true ~sem:(elt ~operand:x ~x:dy ~out ~dims Op.Gelu_grad)
    (fun env ->
      let dy = Op.lookup env dy and x = Op.lookup env x in
      Op.store env out (Dense.map2 (fun g v -> g *. gelu_grad v) dy x))

let dropout_keep_scale p =
  if p < 0.0 || p >= 1.0 then invalid_arg "dropout: p must be in [0, 1)";
  1.0 /. (1.0 -. p)

let dropout_mask ~seed ~name dims ~p =
  let scale = dropout_keep_scale p in
  if p = 0.0 then
    (* No draw is below 0 and the scale is 1: the draws would give all
       ones, so skip them. *)
    Dense.full dims 1.0
  else begin
    let state = Prng.state (Prng.of_key seed name) in
    let m = Dense.zeros dims in
    let d = Dense.unsafe_data m in
    (* Mask folds the keep-scaling in: value is 1/(1-p) or 0. Draw [i] of
       the operator's stream lands at storage position [i]. *)
    Prng.keep_fill d ~at:0 ~n:(Array.length d) state ~e0:0 ~p ~scale;
    m
  end

let dropout ~name ~x ~out ~mask dims ~p ~seed ?(backward = false) () =
  ignore (dropout_keep_scale p);
  let vjp ~cotangents env =
    match cot_of out cotangents with
    | None -> []
    | Some cot -> [ (x, Dense.mul cot (Op.lookup env mask)) ]
  in
  make_map ~name ~reads:[ x ] ~writes:[ out; mask ] ~dims ~flop:(points dims)
    ~backward ~vjp
    ~sem:(elt ~mask ~x ~out ~dims (Op.Dropout_gen { p; seed; key = name }))
    (fun env ->
      let m = dropout_mask ~seed ~name dims ~p in
      Op.store env mask m;
      Op.store env out (Dense.mul (Op.lookup env x) m))

let dropout_dx ~name ~dy ~mask ~out dims ~p =
  ignore (dropout_keep_scale p);
  make_map ~name ~reads:[ dy; mask ] ~writes:[ out ] ~dims ~flop:(points dims)
    ~backward:true ~sem:(elt ~operand:mask ~x:dy ~out ~dims Op.Mul2)
    (fun env ->
      Op.store env out (Dense.mul (Op.lookup env dy) (Op.lookup env mask)))

let sigmoid_value x = 1.0 /. (1.0 +. Fmath.exp (-.x))

let sigmoid ~name ~x ~out dims ?(backward = false) () =
  let vjp ~cotangents env =
    match cot_of out cotangents with
    | None -> []
    | Some cot ->
        let y = Op.lookup env out in
        [ (x, Dense.map2 (fun g v -> g *. v *. (1.0 -. v)) cot y) ]
  in
  make_map ~name ~reads:[ x ] ~writes:[ out ] ~dims ~flop:(4 * points dims)
    ~backward ~vjp ~sem:(elt ~x ~out ~dims Op.Sigmoid) (fun env ->
      Op.store env out (Dense.map sigmoid_value (Op.lookup env x)))

let sigmoid_dx ~name ~dy ~y ~out dims =
  make_map ~name ~reads:[ dy; y ] ~writes:[ out ] ~dims ~flop:(3 * points dims)
    ~backward:true ~sem:(elt ~operand:y ~x:dy ~out ~dims Op.Sigmoid_grad)
    (fun env ->
      let dy = Op.lookup env dy and y = Op.lookup env y in
      Op.store env out (Dense.map2 (fun g v -> g *. v *. (1.0 -. v)) dy y))

let tanh_ ~name ~x ~out dims ?(backward = false) () =
  let vjp ~cotangents env =
    match cot_of out cotangents with
    | None -> []
    | Some cot ->
        let y = Op.lookup env out in
        [ (x, Dense.map2 (fun g v -> g *. (1.0 -. (v *. v))) cot y) ]
  in
  make_map ~name ~reads:[ x ] ~writes:[ out ] ~dims ~flop:(4 * points dims)
    ~backward ~vjp ~sem:(elt ~x ~out ~dims Op.Tanh) (fun env ->
      Op.store env out (Dense.map tanh (Op.lookup env x)))

let tanh_dx ~name ~dy ~y ~out dims =
  make_map ~name ~reads:[ dy; y ] ~writes:[ out ] ~dims ~flop:(3 * points dims)
    ~backward:true ~sem:(elt ~operand:y ~x:dy ~out ~dims Op.Tanh_grad)
    (fun env ->
      let dy = Op.lookup env dy and y = Op.lookup env y in
      Op.store env out (Dense.map2 (fun g v -> g *. (1.0 -. (v *. v))) dy y))

let hadamard ~name ~x ~y ~out dims ?(backward = false) () =
  let vjp ~cotangents env =
    match cot_of out cotangents with
    | None -> []
    | Some cot ->
        [
          (x, Dense.mul cot (Op.lookup env y));
          (y, Dense.mul cot (Op.lookup env x));
        ]
  in
  make_map ~name ~reads:[ x; y ] ~writes:[ out ] ~dims ~flop:(points dims)
    ~backward ~vjp ~sem:(elt ~operand:y ~x ~out ~dims Op.Mul2) (fun env ->
      Op.store env out (Dense.mul (Op.lookup env x) (Op.lookup env y)))

let hadamard_dx ~name ~dy ~other ~out dims =
  make_map ~name ~reads:[ dy; other ] ~writes:[ out ] ~dims
    ~flop:(points dims) ~backward:true
    ~sem:(elt ~operand:other ~x:dy ~out ~dims Op.Mul2) (fun env ->
      Op.store env out (Dense.mul (Op.lookup env dy) (Op.lookup env other)))

let add ~name ~x ~y ~out dims ?(backward = false) () =
  let vjp ~cotangents _env =
    match cot_of out cotangents with
    | None -> []
    | Some cot -> [ (x, cot); (y, cot) ]
  in
  make_map ~name ~reads:[ x; y ] ~writes:[ out ] ~dims ~flop:(points dims)
    ~backward ~vjp ~sem:(elt ~operand:y ~x ~out ~dims Op.Add2) (fun env ->
      Op.store env out (Dense.add (Op.lookup env x) (Op.lookup env y)))

let copy ~name ~x ~out dims ?(backward = false) () =
  let vjp ~cotangents _env =
    match cot_of out cotangents with None -> [] | Some cot -> [ (x, cot) ]
  in
  make_map ~name ~reads:[ x ] ~writes:[ out ] ~dims ~flop:0 ~backward ~vjp
    ~sem:(elt ~x ~out ~dims Op.Copy) (fun env ->
      Op.store env out (Dense.copy (Op.lookup env x)))

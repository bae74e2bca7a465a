let default_eps = 1e-5

let points dims = List.fold_left (fun acc (_, d) -> acc * d) 1 dims

let split dims ~axis =
  let independent = List.filter (fun (a, _) -> not (Axis.equal a axis)) dims in
  let reduction = List.filter (fun (a, _) -> Axis.equal a axis) dims in
  if reduction = [] then
    invalid_arg "Normalization: reduction axis absent from dims";
  Iteration.make ~independent ~reduction

let make ~name ~reads ~writes ~space ~flop ~backward ?vjp ?sem run =
  {
    Op.name;
    cls = Sdfg.Opclass.Normalization;
    reads;
    writes;
    space;
    flop;
    kind = Op.Reduce;
    run;
    backward;
    vjp;
    sem;
  }

let causal_mask ~q ~k dims =
  let mask_dims = List.filter (fun (a, _) -> Axis.equal a q || Axis.equal a k) dims in
  Dense.init mask_dims (fun idx ->
      if List.assoc k idx > List.assoc q idx then neg_infinity else 0.0)

(* Stabilized core shared by every softmax entry point: max subtraction,
   exp, sum, divide. The decode-time masked softmax routes through the same
   code so incremental and full-recompute attention stay bitwise equal. *)
let softmax_core xs ~axis =
  let mx = Dense.max_over xs [ axis ] in
  let e = Dense.add_bcast xs (Dense.scale (-1.0) mx) in
  let d = Dense.unsafe_data e in
  Fmath.exp_inplace d ~off:0 ~n:(Array.length d);
  let s = Dense.sum_over e [ axis ] in
  Dense.mul_bcast e (Dense.map (fun v -> 1.0 /. v) s)

(* softmax(s*x) along [axis], stabilized by max subtraction. *)
let softmax_value ?causal x ~axis ~prescale =
  let xs = if prescale = 1.0 then x else Dense.scale prescale x in
  let xs =
    match causal with
    | None -> xs
    | Some (q, k) ->
        let dims = Shape.to_list (Dense.shape xs) in
        Dense.add_bcast xs (causal_mask ~q ~k dims)
  in
  softmax_core xs ~axis

(* softmax(prescale*x + mask) along [axis]: the additive mask lands after
   the prescale, exactly where [softmax_value] adds its causal mask, so a
   0/-inf padding mask reproduces the causal path bit for bit. *)
let softmax_masked ?mask x ~axis ~prescale =
  let xs = if prescale = 1.0 then x else Dense.scale prescale x in
  let xs = match mask with None -> xs | Some m -> Dense.add_bcast xs m in
  softmax_core xs ~axis

let softmax_dx_value ~dy ~y ~axis ~prescale =
  let inner = Dense.sum_over (Dense.mul dy y) [ axis ] in
  let centered = Dense.add_bcast dy (Dense.scale (-1.0) inner) in
  Dense.scale prescale (Dense.mul y centered)

let softmax ~name ~x ~out dims ~axis ?(prescale = 1.0) ?causal
    ?(backward = false) () =
  let vjp ~cotangents env =
    match List.assoc_opt out cotangents with
    | None -> []
    | Some cot ->
        (* masked (causal) positions have y = 0, so the same formula holds *)
        [ (x, softmax_dx_value ~dy:cot ~y:(Op.lookup env out) ~axis ~prescale) ]
  in
  make ~name ~reads:[ x ] ~writes:[ out ] ~space:(split dims ~axis)
    ~flop:(6 * points dims) ~backward ~vjp
    ~sem:
      (Op.Red
         (Op.Softmax
            { r_x = x; r_out = out; r_axis = axis; r_prescale = prescale;
              r_causal = causal }))
    (fun env ->
      Op.store env out (softmax_value ?causal (Op.lookup env x) ~axis ~prescale))

let softmax_dx ~name ~dy ~y ~out dims ~axis ?(prescale = 1.0) () =
  make ~name ~reads:[ dy; y ] ~writes:[ out ] ~space:(split dims ~axis)
    ~flop:(5 * points dims) ~backward:true
    ~sem:
      (Op.Red
         (Op.Softmax_dx
            { sd_dy = dy; sd_y = y; sd_out = out; sd_axis = axis;
              sd_prescale = prescale }))
    (fun env ->
      let dy = Op.lookup env dy and y = Op.lookup env y in
      Op.store env out (softmax_dx_value ~dy ~y ~axis ~prescale))

let normalized x ~mean ~istd =
  Dense.mul_bcast (Dense.add_bcast x (Dense.scale (-1.0) mean)) istd

let layernorm_stats x ~axis ~eps =
  let mean = Dense.mean_over x [ axis ] in
  let diff = Dense.add_bcast x (Dense.scale (-1.0) mean) in
  let var = Dense.mean_over (Dense.mul diff diff) [ axis ] in
  let istd = Dense.map (fun v -> 1.0 /. sqrt (v +. eps)) var in
  (mean, istd)

let layernorm_dx_value ~dy ~x ~gamma ~mean ~istd ~axis =
  let xhat = normalized x ~mean ~istd in
  let dyg = Dense.mul_bcast dy gamma in
  let mean_dyg = Dense.mean_over dyg [ axis ] in
  let mean_dyg_xhat = Dense.mean_over (Dense.mul dyg xhat) [ axis ] in
  let centered =
    Dense.sub (Dense.add_bcast dyg (Dense.scale (-1.0) mean_dyg))
      (Dense.mul_bcast xhat mean_dyg_xhat)
  in
  Dense.mul_bcast centered istd

let layernorm ~name ~x ~gamma ~beta ~out ~mean ~istd dims ~axis
    ?(eps = default_eps) ?(backward = false) () =
  let vjp ~cotangents env =
    match List.assoc_opt out cotangents with
    | None -> []
    | Some cot ->
        let xv = Op.lookup env x
        and g = Op.lookup env gamma
        and m = Op.lookup env mean
        and s = Op.lookup env istd in
        let xhat = normalized xv ~mean:m ~istd:s in
        [
          (x, layernorm_dx_value ~dy:cot ~x:xv ~gamma:g ~mean:m ~istd:s ~axis);
          (gamma, Dense.reduce_bcast (Dense.mul cot xhat) [ axis ]);
          (beta, Dense.reduce_bcast cot [ axis ]);
        ]
  in
  make ~name
    ~reads:[ x; gamma; beta ]
    ~writes:[ out; mean; istd ]
    ~space:(split dims ~axis) ~flop:(7 * points dims) ~backward ~vjp
    ~sem:
      (Op.Red
         (Op.Layernorm
            { ln_x = x; ln_gamma = gamma; ln_beta = beta; ln_out = out;
              ln_mean = mean; ln_istd = istd; ln_axis = axis; ln_eps = eps }))
    (fun env ->
      let xv = Op.lookup env x in
      let m, s = layernorm_stats xv ~axis ~eps in
      let xhat = normalized xv ~mean:m ~istd:s in
      Op.store env mean m;
      Op.store env istd s;
      Op.store env out
        (Dense.add_bcast (Dense.mul_bcast xhat (Op.lookup env gamma))
           (Op.lookup env beta)))

let layernorm_dx ~name ~dy ~x ~gamma ~mean ~istd ~out dims ~axis =
  make ~name
    ~reads:[ dy; x; gamma; mean; istd ]
    ~writes:[ out ] ~space:(split dims ~axis) ~flop:(9 * points dims)
    ~backward:true
    ~sem:
      (Op.Red
         (Op.Layernorm_dx
            { ld_dy = dy; ld_x = x; ld_gamma = gamma; ld_mean = mean;
              ld_istd = istd; ld_out = out; ld_axis = axis }))
    (fun env ->
      Op.store env out
        (layernorm_dx_value ~dy:(Op.lookup env dy) ~x:(Op.lookup env x)
           ~gamma:(Op.lookup env gamma) ~mean:(Op.lookup env mean)
           ~istd:(Op.lookup env istd) ~axis))

let layernorm_dw ~name ~dy ~x ~mean ~istd ~dgamma ~dbeta dims ~axis =
  let keep = [ axis ] in
  let space =
    (* Reduces over the non-normalized axes: independent axis is the
       parameter axis. *)
    let independent = List.filter (fun (a, _) -> Axis.equal a axis) dims in
    let reduction = List.filter (fun (a, _) -> not (Axis.equal a axis)) dims in
    Iteration.make ~independent ~reduction
  in
  make ~name
    ~reads:[ dy; x; mean; istd ]
    ~writes:[ dgamma; dbeta ] ~space ~flop:(4 * points dims) ~backward:true
    ~sem:
      (Op.Red
         (Op.Layernorm_dw
            { lw_dy = dy; lw_x = x; lw_mean = mean; lw_istd = istd;
              lw_dgamma = dgamma; lw_dbeta = dbeta; lw_axis = axis }))
    (fun env ->
      let dy = Op.lookup env dy in
      let xhat =
        normalized (Op.lookup env x) ~mean:(Op.lookup env mean)
          ~istd:(Op.lookup env istd)
      in
      Op.store env dgamma (Dense.reduce_bcast (Dense.mul dy xhat) keep);
      Op.store env dbeta (Dense.reduce_bcast dy keep))

(* ------------------------------------------------------------------ *)
(* Batch normalization: reduce over every axis except the channel.      *)
(* ------------------------------------------------------------------ *)

let bn_axes dims ~channel =
  List.map fst (List.filter (fun (a, _) -> not (Axis.equal a channel)) dims)

let bn_space dims ~channel =
  let independent = List.filter (fun (a, _) -> Axis.equal a channel) dims in
  let reduction = List.filter (fun (a, _) -> not (Axis.equal a channel)) dims in
  if reduction = [] then
    invalid_arg "Normalization.batchnorm: nothing to normalize over";
  Iteration.make ~independent ~reduction

let bn_stats x ~red ~eps =
  let mean = Dense.mean_over x red in
  let diff = Dense.add_bcast x (Dense.scale (-1.0) mean) in
  let var = Dense.mean_over (Dense.mul diff diff) red in
  let istd = Dense.map (fun v -> 1.0 /. sqrt (v +. eps)) var in
  (mean, istd)

let bn_dx_value ~dy ~x ~gamma ~mean ~istd ~red =
  let xhat = normalized x ~mean ~istd in
  let dyg = Dense.mul_bcast dy gamma in
  let mean_dyg = Dense.mean_over dyg red in
  let mean_dyg_xhat = Dense.mean_over (Dense.mul dyg xhat) red in
  let centered =
    Dense.sub
      (Dense.add_bcast dyg (Dense.scale (-1.0) mean_dyg))
      (Dense.mul_bcast xhat mean_dyg_xhat)
  in
  Dense.mul_bcast centered istd

let batchnorm ~name ~x ~gamma ~beta ~out ~mean ~istd dims ~channel
    ?(eps = default_eps) ?(backward = false) () =
  let red = bn_axes dims ~channel in
  let vjp ~cotangents env =
    match List.assoc_opt out cotangents with
    | None -> []
    | Some cot ->
        let xv = Op.lookup env x
        and g = Op.lookup env gamma
        and m = Op.lookup env mean
        and s = Op.lookup env istd in
        let xhat = normalized xv ~mean:m ~istd:s in
        [
          (x, bn_dx_value ~dy:cot ~x:xv ~gamma:g ~mean:m ~istd:s ~red);
          (gamma, Dense.reduce_bcast (Dense.mul cot xhat) [ channel ]);
          (beta, Dense.reduce_bcast cot [ channel ]);
        ]
  in
  make ~name
    ~reads:[ x; gamma; beta ]
    ~writes:[ out; mean; istd ]
    ~space:(bn_space dims ~channel) ~flop:(7 * points dims) ~backward ~vjp
    (fun env ->
      let xv = Op.lookup env x in
      let m, s = bn_stats xv ~red ~eps in
      let xhat = normalized xv ~mean:m ~istd:s in
      Op.store env mean m;
      Op.store env istd s;
      Op.store env out
        (Dense.add_bcast
           (Dense.mul_bcast xhat (Op.lookup env gamma))
           (Op.lookup env beta)))

let batchnorm_dx ~name ~dy ~x ~gamma ~mean ~istd ~out dims ~channel =
  let red = bn_axes dims ~channel in
  make ~name
    ~reads:[ dy; x; gamma; mean; istd ]
    ~writes:[ out ] ~space:(bn_space dims ~channel) ~flop:(9 * points dims)
    ~backward:true (fun env ->
      Op.store env out
        (bn_dx_value ~dy:(Op.lookup env dy) ~x:(Op.lookup env x)
           ~gamma:(Op.lookup env gamma) ~mean:(Op.lookup env mean)
           ~istd:(Op.lookup env istd) ~red))

let batchnorm_dw ~name ~dy ~x ~mean ~istd ~dgamma ~dbeta dims ~channel =
  layernorm_dw ~name ~dy ~x ~mean ~istd ~dgamma ~dbeta dims ~axis:channel

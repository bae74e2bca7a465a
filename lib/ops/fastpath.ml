(* Fused single-pass interpretation of operator groups.

   {!Fusion} decides *which* operators form one kernel; this module decides
   *how* that kernel runs. [compile_group] inspects the declarative [sem]
   mirror of each member and builds a closure that

   - executes chains of element-wise members (bias/dropout/residual/
     activation, the paper's BDRLN/BSB/BAOB-style interiors) as one pass
     over the data, 256 positions at a time: the tile's running values sit
     in an {!Arena} buffer, each stage gathers its operand for the tile
     (a blit, or a strided walk from the tile's first position) and runs
     one loop specialised to its fn, and intermediates that nothing else
     reads are never materialized into the env;
   - executes statistical members (softmax, layernorm and their adjoints)
     as dedicated row-wise kernels whose per-row scratch comes from the
     {!Arena} instead of whole-tensor temporaries.

   Every kernel replicates the naive constructors' floating-point operation
   *order* (same association, same [-1.0 *. m] style sign flips, dropout
   masks drawn by the same counter-based {!Prng.keep_at}), so fused
   results match the naive oracle bitwise wherever operand layouts agree
   and within normal round-off when a layout permutation reorders an
   accumulation.

   Correctness fallbacks are structural: a member without [sem], or whose
   runtime shapes/layouts violate a kernel's preconditions, simply runs its
   own naive [run] against the env. That is always sound because a member's
   inputs are materialized unless they are provably dead (only consumed as
   the next chain link). *)

let position axis axes =
  let rec go i = function
    | [] -> -1
    | a :: rest -> if Axis.equal a axis then i else go (i + 1) rest
  in
  go 0 axes

(* Below this element volume a row-parallel ("fastpath.rows") or chain
   ("fastpath.map") region loses to the inline one. Measured on a shared
   2-vCPU Xeon, inline against 2 domains: an empty region costs about
   1 us, but a sharded one only gains once the worker's wake-up and cache
   misses are paid. Layernorm and a bias-relu chain (7-10 ns/element
   inline) lost at 4,096 elements (35-43 us inline, 40-51 sharded), broke
   even at 6,144 and won from 8,192 (67-81 against 57-75); softmax, 3x
   costlier per element, lost at 2,048 and won from 6,144. *)
let par_min_work = 8192

(* Shard the rows of [dims] with dimension [p] reduced away across Pool
   workers: [run ~row_lo ~row_hi] handles one disjoint range (borrowing
   any per-worker scratch itself). Each range walks private state, so
   per-row outputs are bitwise identical to the serial walk. *)
let par_row_ranges dims p run =
  let work = Array.fold_left ( * ) 1 dims in
  let rows = work / dims.(p) in
  if rows >= 2 && work >= par_min_work && Pool.num_domains () > 1 then
    Pool.parallel_for ~label:"fastpath.rows" ~start:0 ~finish:rows
      (fun row_lo row_hi -> run ~row_lo ~row_hi)
  else run ~row_lo:0 ~row_hi:rows

(* Rows [row_lo, row_hi) of [dims] with dimension [p] removed, in storage
   order, as {!Dense.iter_runs} runs over [sets] (each aligned to the full
   [dims]). Calls [f row bases] with [bases.(s)] set [s]'s offset at the
   row start ([bases] is reused). A range starts at [row_lo] itself, so
   disjoint ranges visit exactly the rows of the serial walk. *)
let walk_rows dims sets p =
  let m = Array.length dims - 1 in
  let drop s = Array.init m (fun i -> if i < p then s.(i) else s.(i + 1)) in
  let odims = drop dims and osets = Array.map drop sets in
  let inner = Array.map (fun s -> if m = 0 then 0 else s.(m - 1)) osets in
  fun ~row_lo ~row_hi f ->
    let bases = Array.make (Array.length sets) 0 in
    Dense.iter_runs odims osets ~lo:row_lo ~hi:row_hi (fun k offs run ->
        for q = 0 to run - 1 do
          for s = 0 to Array.length bases - 1 do
            bases.(s) <- offs.(s) + (q * inner.(s))
          done;
          f (row_lo + k + q) bases
        done)

let par_rows dims sets p f =
  let walk = walk_rows dims sets p in
  par_row_ranges dims p (fun ~row_lo ~row_hi -> walk ~row_lo ~row_hi f)

let dims_of t = Array.of_list (Shape.sizes (Dense.shape t))
let own_strides t = Shape.strides (Dense.shape t)

(* ------------------------------------------------------------------ *)
(* Reduction kernels                                                   *)
(* ------------------------------------------------------------------ *)

let softmax_fast env (op : Op.t) ~x_name ~out_name ~axis ~prescale ~causal =
  let x = Op.lookup env x_name in
  let ax = Dense.layout x in
  let p = position axis ax in
  let qpos =
    match causal with
    | Some (q, _) when not (Axis.equal q axis) -> position q ax
    | _ -> -1
  in
  let causal_ok =
    match causal with
    | None -> true
    | Some (_, kax) -> Axis.equal kax axis && qpos >= 0
  in
  if p < 0 || not causal_ok then op.run env
  else begin
    let dims = dims_of x in
    let strides = own_strides x in
    let kl = dims.(p) and sk = strides.(p) in
    let out = Dense.zeros (Shape.to_list (Dense.shape x)) in
    let xd = Dense.unsafe_data x and od = Dense.unsafe_data out in
    (* A row's causal query index, from its row number: [qdiv]
       consecutive rows share one. *)
    let qdiv = ref 1 in
    Array.iteri (fun d n -> if d > qpos && d <> p then qdiv := !qdiv * n) dims;
    let qdiv = !qdiv in
    let walk = walk_rows dims [| strides |] p in
    par_row_ranges dims p (fun ~row_lo ~row_hi ->
        (* Per-range borrow: the arena is domain-local, so each worker
           gets its own row scratch without contention. *)
        Arena.with_scratch Arena.global kl (fun e ->
            walk ~row_lo ~row_hi (fun row bases ->
            let base = bases.(0) in
            let jq = if qpos >= 0 then row / qdiv mod dims.(qpos) else -1 in
            let mx = ref neg_infinity in
            for k = 0 to kl - 1 do
              let v = prescale *. Array.unsafe_get xd (base + (k * sk)) in
              let v =
                if jq >= 0 then
                  if k > jq then v +. neg_infinity else v +. 0.0
                else v
              in
              Array.unsafe_set e k v;
              mx := Float.max !mx v
            done;
            let nm = -1.0 *. !mx in
            let s = ref 0.0 in
            for k = 0 to kl - 1 do
              let ev = Fmath.exp (Array.unsafe_get e k +. nm) in
              Array.unsafe_set e k ev;
              s := !s +. ev
            done;
            let inv = 1.0 /. !s in
            for k = 0 to kl - 1 do
              Array.unsafe_set od (base + (k * sk)) (Array.unsafe_get e k *. inv)
            done)));
    Op.store env out_name out
  end

let softmax_dx_fast env (op : Op.t) ~dy_name ~y_name ~out_name ~axis ~prescale =
  let dy = Op.lookup env dy_name and y = Op.lookup env y_name in
  let ax = Dense.layout y in
  let p = position axis ax in
  if p < 0 || position axis (Dense.layout dy) < 0 then op.run env
  else begin
    let dims = dims_of y in
    let y_str = own_strides y in
    let dy_str = Dense.strides_for dy ax in
    let y_sk = y_str.(p) and dy_sk = dy_str.(p) in
    let kl = dims.(p) in
    let out = Dense.zeros (Shape.to_list (Dense.shape y)) in
    let yd = Dense.unsafe_data y
    and dyd = Dense.unsafe_data dy
    and od = Dense.unsafe_data out in
    par_rows dims [| y_str; dy_str |] p (fun _row bases ->
        let yb = bases.(0) and dyb = bases.(1) in
        let s = ref 0.0 in
        for k = 0 to kl - 1 do
          s :=
            !s
            +. (Array.unsafe_get dyd (dyb + (k * dy_sk))
               *. Array.unsafe_get yd (yb + (k * y_sk)))
        done;
        let ns = -1.0 *. !s in
        for k = 0 to kl - 1 do
          let yv = Array.unsafe_get yd (yb + (k * y_sk)) in
          let dyv = Array.unsafe_get dyd (dyb + (k * dy_sk)) in
          Array.unsafe_set od (yb + (k * y_sk)) (prescale *. (yv *. (dyv +. ns)))
        done);
    Op.store env out_name out
  end

let rank1_over axis t =
  match Dense.layout t with [ a ] -> Axis.equal a axis | _ -> false

let layernorm_fast env (op : Op.t) ~x_name ~gamma_name ~beta_name ~out_name
    ~mean_name ~istd_name ~axis ~eps =
  let x = Op.lookup env x_name in
  let gamma = Op.lookup env gamma_name and beta = Op.lookup env beta_name in
  let ax = Dense.layout x in
  let p = position axis ax in
  if p < 0 || not (rank1_over axis gamma) || not (rank1_over axis beta) then
    op.run env
  else begin
    let dims = dims_of x in
    let strides = own_strides x in
    let kl = dims.(p) and sk = strides.(p) in
    let inv_n = 1.0 /. float_of_int kl in
    let keep =
      List.filter (fun (a, _) -> not (Axis.equal a axis))
        (Shape.to_list (Dense.shape x))
    in
    let out = Dense.zeros (Shape.to_list (Dense.shape x)) in
    let mean_t = Dense.zeros keep and istd_t = Dense.zeros keep in
    let xd = Dense.unsafe_data x
    and od = Dense.unsafe_data out
    and md = Dense.unsafe_data mean_t
    and sd = Dense.unsafe_data istd_t
    and gd = Dense.unsafe_data gamma
    and bd = Dense.unsafe_data beta in
    par_rows dims [| strides |] p (fun row bases ->
        let base = bases.(0) in
        let s = ref 0.0 in
        for k = 0 to kl - 1 do
          s := !s +. Array.unsafe_get xd (base + (k * sk))
        done;
        let m = inv_n *. !s in
        let nm = -1.0 *. m in
        let s2 = ref 0.0 in
        for k = 0 to kl - 1 do
          let d = Array.unsafe_get xd (base + (k * sk)) +. nm in
          s2 := !s2 +. (d *. d)
        done;
        let var = inv_n *. !s2 in
        let istd = 1.0 /. sqrt (var +. eps) in
        Array.unsafe_set md row m;
        Array.unsafe_set sd row istd;
        for k = 0 to kl - 1 do
          let xhat = (Array.unsafe_get xd (base + (k * sk)) +. nm) *. istd in
          Array.unsafe_set od (base + (k * sk))
            ((xhat *. Array.unsafe_get gd k) +. Array.unsafe_get bd k)
        done);
    Op.store env out_name out;
    Op.store env mean_name mean_t;
    Op.store env istd_name istd_t
  end

let layernorm_dx_fast env (op : Op.t) ~dy_name ~x_name ~gamma_name ~mean_name
    ~istd_name ~out_name ~axis =
  let dy = Op.lookup env dy_name
  and x = Op.lookup env x_name
  and gamma = Op.lookup env gamma_name
  and mean = Op.lookup env mean_name
  and istd = Op.lookup env istd_name in
  let ax = Dense.layout dy in
  let p = position axis ax in
  if p < 0 || position axis (Dense.layout x) < 0 || not (rank1_over axis gamma)
  then op.run env
  else begin
    let dims = dims_of dy in
    let dy_str = own_strides dy in
    let x_str = Dense.strides_for x ax in
    let m_str = Dense.strides_for mean ax in
    let s_str = Dense.strides_for istd ax in
    let kl = dims.(p) in
    let dy_sk = dy_str.(p) and x_sk = x_str.(p) in
    let inv_n = 1.0 /. float_of_int kl in
    let out = Dense.zeros (Shape.to_list (Dense.shape dy)) in
    let dyd = Dense.unsafe_data dy
    and xd = Dense.unsafe_data x
    and gd = Dense.unsafe_data gamma
    and md = Dense.unsafe_data mean
    and sd = Dense.unsafe_data istd
    and od = Dense.unsafe_data out in
    par_rows dims [| dy_str; x_str; m_str; s_str |] p (fun _row bases ->
        let dyb = bases.(0) and xb = bases.(1) in
        let m = Array.unsafe_get md bases.(2) in
        let ist = Array.unsafe_get sd bases.(3) in
        let nm = -1.0 *. m in
        let s1 = ref 0.0 and s2 = ref 0.0 in
        for k = 0 to kl - 1 do
          let dyg =
            Array.unsafe_get dyd (dyb + (k * dy_sk)) *. Array.unsafe_get gd k
          in
          let xhat = (Array.unsafe_get xd (xb + (k * x_sk)) +. nm) *. ist in
          s1 := !s1 +. dyg;
          s2 := !s2 +. (dyg *. xhat)
        done;
        let mean_dyg = inv_n *. !s1 in
        let mdx = inv_n *. !s2 in
        let nmd = -1.0 *. mean_dyg in
        for k = 0 to kl - 1 do
          let dyg =
            Array.unsafe_get dyd (dyb + (k * dy_sk)) *. Array.unsafe_get gd k
          in
          let xhat = (Array.unsafe_get xd (xb + (k * x_sk)) +. nm) *. ist in
          Array.unsafe_set od (dyb + (k * dy_sk))
            (((dyg +. nmd) -. (xhat *. mdx)) *. ist)
        done);
    Op.store env out_name out
  end

let layernorm_dw_fast env (op : Op.t) ~dy_name ~x_name ~mean_name ~istd_name
    ~dgamma_name ~dbeta_name ~axis =
  let dy = Op.lookup env dy_name and x = Op.lookup env x_name in
  let mean = Op.lookup env mean_name and istd = Op.lookup env istd_name in
  let ax = Dense.layout dy in
  let p = position axis ax in
  if p < 0 || position axis (Dense.layout x) < 0 then op.run env
  else begin
    let dims = dims_of dy in
    let x_str = Dense.strides_for x ax in
    let m_str = Dense.strides_for mean ax in
    let s_str = Dense.strides_for istd ax in
    let kl = dims.(p) in
    let n = Array.length dims in
    let dgamma = Dense.zeros [ (axis, kl) ] and dbeta = Dense.zeros [ (axis, kl) ] in
    let dyd = Dense.unsafe_data dy
    and xd = Dense.unsafe_data x
    and md = Dense.unsafe_data mean
    and sd = Dense.unsafe_data istd
    and dg = Dense.unsafe_data dgamma
    and db = Dense.unsafe_data dbeta in
    (* Walk [dy] in storage order; the fourth stride set is [axis]'s unit
       vector, so its offset is the position's coordinate on [axis]. *)
    let k_str = Array.init n (fun d -> if d = p then 1 else 0) in
    let xi = x_str.(n - 1) and mi = m_str.(n - 1) and si = s_str.(n - 1) in
    let ki = k_str.(n - 1) in
    Dense.iter_runs dims [| x_str; m_str; s_str; k_str |] ~lo:0
      ~hi:(Array.length dyd) (fun pos offs run ->
        let xo = offs.(0) and mo = offs.(1) and so = offs.(2) in
        let ko = offs.(3) in
        for q = 0 to run - 1 do
          let k = ko + (q * ki) in
          let xhat =
            (Array.unsafe_get xd (xo + (q * xi))
            +. (-1.0 *. Array.unsafe_get md (mo + (q * mi))))
            *. Array.unsafe_get sd (so + (q * si))
          in
          let dyv = Array.unsafe_get dyd (pos + q) in
          Array.unsafe_set dg k (Array.unsafe_get dg k +. (dyv *. xhat));
          Array.unsafe_set db k (Array.unsafe_get db k +. dyv)
        done);
    Op.store env dgamma_name dgamma;
    Op.store env dbeta_name dbeta
  end

let run_red env (op : Op.t) = function
  | Op.Softmax { r_x; r_out; r_axis; r_prescale; r_causal } ->
      softmax_fast env op ~x_name:r_x ~out_name:r_out ~axis:r_axis
        ~prescale:r_prescale ~causal:r_causal
  | Op.Softmax_dx { sd_dy; sd_y; sd_out; sd_axis; sd_prescale } ->
      softmax_dx_fast env op ~dy_name:sd_dy ~y_name:sd_y ~out_name:sd_out
        ~axis:sd_axis ~prescale:sd_prescale
  | Op.Layernorm { ln_x; ln_gamma; ln_beta; ln_out; ln_mean; ln_istd; ln_axis; ln_eps }
    ->
      layernorm_fast env op ~x_name:ln_x ~gamma_name:ln_gamma
        ~beta_name:ln_beta ~out_name:ln_out ~mean_name:ln_mean
        ~istd_name:ln_istd ~axis:ln_axis ~eps:ln_eps
  | Op.Layernorm_dx { ld_dy; ld_x; ld_gamma; ld_mean; ld_istd; ld_out; ld_axis } ->
      layernorm_dx_fast env op ~dy_name:ld_dy ~x_name:ld_x
        ~gamma_name:ld_gamma ~mean_name:ld_mean ~istd_name:ld_istd
        ~out_name:ld_out ~axis:ld_axis
  | Op.Layernorm_dw { lw_dy; lw_x; lw_mean; lw_istd; lw_dgamma; lw_dbeta; lw_axis }
    ->
      layernorm_dw_fast env op ~dy_name:lw_dy ~x_name:lw_x ~mean_name:lw_mean
        ~istd_name:lw_istd ~dgamma_name:lw_dgamma ~dbeta_name:lw_dbeta
        ~axis:lw_axis
  | Op.Bias_dw _ ->
      (* already a single strided pass in the naive constructor *)
      op.run env

(* ------------------------------------------------------------------ *)
(* Element-wise chains                                                 *)
(* ------------------------------------------------------------------ *)

type chain_stage = { cs_op : Op.t; cs_sem : Op.elt_sem; cs_store : bool }

type step =
  | Chain of chain_stage list
  | Red of Op.t * Op.red_sem

(* Positions a chain processes per tile: the running values and one
   stage's gathered operand sit in two [tile]-float buffers. *)
let tile = 256

let no_arr : float array = [||]

type rt_stage = {
  rt_fn : Op.elt_fn;
  rt_opnd : float array;  (* [no_arr] when the fn is unary *)
  rt_strides : int array;  (* [||] when the operand walks with the position *)
  rt_out : float array;  (* [no_arr] when the output is dead *)
}

(* Gather [len] operand values for positions [base, base + len) of the
   chain's [dims] into [o], reading [src] through [str] (the operand's
   strides per chain axis; 0 on broadcast axes). *)
let gather_strided (src : float array) str dims (o : float array) ~base ~len =
  let si = str.(Array.length dims - 1) in
  Dense.iter_runs dims [| str |] ~lo:base ~hi:(base + len) (fun k offs run ->
      let off = offs.(0) in
      for q = 0 to run - 1 do
        Array.unsafe_set o (k + q) (Array.unsafe_get src (off + (q * si)))
      done)

(* One stage over a tile: [v.(k) <- fn v.(k) o.(k)] for [k < len], with
   the fn matched once per tile. Each body is the naive constructor's
   expression, so every element sees the same operations; only GELU, its
   gradient and sigmoid box a float, through their out-of-line calls. *)
let run_stage fn (v : float array) (o : float array) len =
  match fn with
  | Op.Add2 ->
      for k = 0 to len - 1 do
        Array.unsafe_set v k (Array.unsafe_get v k +. Array.unsafe_get o k)
      done
  | Op.Mul2 | Op.Dropout_gen _ ->
      for k = 0 to len - 1 do
        Array.unsafe_set v k (Array.unsafe_get v k *. Array.unsafe_get o k)
      done
  | Op.Relu ->
      for k = 0 to len - 1 do
        Array.unsafe_set v k (Float.max 0.0 (Array.unsafe_get v k))
      done
  | Op.Gelu ->
      for k = 0 to len - 1 do
        Array.unsafe_set v k (Elementwise.gelu_value (Array.unsafe_get v k))
      done
  | Op.Sigmoid ->
      for k = 0 to len - 1 do
        Array.unsafe_set v k (Elementwise.sigmoid_value (Array.unsafe_get v k))
      done
  | Op.Tanh ->
      for k = 0 to len - 1 do
        Array.unsafe_set v k (tanh (Array.unsafe_get v k))
      done
  | Op.Copy -> ()
  | Op.Relu_grad ->
      for k = 0 to len - 1 do
        if not (Array.unsafe_get o k > 0.0) then Array.unsafe_set v k 0.0
      done
  | Op.Gelu_grad ->
      for k = 0 to len - 1 do
        Array.unsafe_set v k
          (Array.unsafe_get v k *. Elementwise.gelu_grad (Array.unsafe_get o k))
      done
  | Op.Sigmoid_grad ->
      for k = 0 to len - 1 do
        let y = Array.unsafe_get o k in
        Array.unsafe_set v k (Array.unsafe_get v k *. y *. (1.0 -. y))
      done
  | Op.Tanh_grad ->
      for k = 0 to len - 1 do
        let y = Array.unsafe_get o k in
        Array.unsafe_set v k (Array.unsafe_get v k *. (1.0 -. (y *. y)))
      done

(* Run a chain tile by tile. Sound when every stage's dims agree with the
   chain input's axes (checked); operand layouts are free (strided). *)
let run_chain env (stages : chain_stage list) =
  let first = List.hd stages in
  let x0 = Op.lookup env first.cs_sem.Op.e_x in
  let ax = Dense.layout x0 in
  let dims = dims_of x0 in
  let total = Array.fold_left ( * ) 1 dims in
  let canon = own_strides x0 in
  let compatible (st : chain_stage) =
    let d = st.cs_sem.Op.e_dims in
    Axis.equal_sets (List.map fst d) ax
    && List.fold_left (fun acc (_, v) -> acc * v) 1 d = total
  in
  if not (List.for_all compatible stages) then
    List.iter (fun st -> st.cs_op.Op.run env) stages
  else begin
    let mk_stage (st : chain_stage) =
      let sem = st.cs_sem in
      let opnd =
        match sem.Op.e_fn with
        | Op.Dropout_gen { p; seed; key } ->
            let m = Elementwise.dropout_mask ~seed ~name:key sem.Op.e_dims ~p in
            (match sem.Op.e_mask with
            | Some mc -> Op.store env mc m
            | None -> ());
            Some m
        | _ -> Option.map (Op.lookup env) sem.Op.e_operand
      in
      let rt_opnd, rt_strides =
        match opnd with
        | None -> (no_arr, [||])
        | Some o ->
            let str = Dense.strides_for o ax in
            if str = canon then (Dense.unsafe_data o, [||])
            else (Dense.unsafe_data o, str)
      in
      let rt_out =
        if st.cs_store then begin
          let out = Dense.zeros (Shape.to_list (Dense.shape x0)) in
          Op.store env sem.Op.e_out out;
          Dense.unsafe_data out
        end
        else no_arr
      in
      { rt_fn = sem.Op.e_fn; rt_opnd; rt_strides; rt_out }
    in
    let rts = Array.of_list (List.map mk_stage stages) in
    let xd = Dense.unsafe_data x0 in
    let tl = Int.min tile total in
    (* One disjoint position range [lo, hi), a tile at a time: every
       operand gather is derived from the tile's first position, so any
       partition of [0, total) writes exactly what the serial walk
       writes — each position's chain value depends on that position
       alone. *)
    let run_range lo hi =
      Arena.with_scratch Arena.global tl (fun v ->
          Arena.with_scratch Arena.global tl (fun o ->
              let base = ref lo in
              while !base < hi do
                let b = !base in
                let len = Int.min tl (hi - b) in
                Array.blit xd b v 0 len;
                Array.iter
                  (fun st ->
                    if st.rt_opnd != no_arr then
                      if Array.length st.rt_strides = 0 then
                        Array.blit st.rt_opnd b o 0 len
                      else
                        gather_strided st.rt_opnd st.rt_strides dims o ~base:b
                          ~len;
                    run_stage st.rt_fn v o len;
                    if st.rt_out != no_arr then Array.blit v 0 st.rt_out b len)
                  rts;
                base := b + len
              done))
    in
    if total >= par_min_work && Pool.num_domains () > 1 then
      Pool.parallel_for ~label:"fastpath.map" ~start:0 ~finish:total run_range
    else run_range 0 total
  end

(* ------------------------------------------------------------------ *)
(* Group compilation                                                   *)
(* ------------------------------------------------------------------ *)

let compile_group ~external_writes (members : Op.t list) =
  let sems =
    (* contraction sems are structural descriptors for the attention
       prefuser, not interpretable steps: a group containing one falls
       back to sequential replay like any un-described member *)
    List.map
      (fun (m : Op.t) ->
        match m.Op.sem with
        | Some (Op.Contract _) | None -> None
        | Some s -> Some (m, s))
      members
  in
  if List.exists Option.is_none sems then None
  else begin
    let tagged =
      List.mapi (fun i s -> (i, Option.get s)) sems
    in
    let marr = Array.of_list members in
    let nmem = Array.length marr in
    (* [chained_into.(j)] is the container member [j] consumes as its chain
       input, when members [j-1] and [j] link up element-wise. *)
    let chained_into = Array.make nmem None in
    List.iter
      (fun (i, (_, s)) ->
        if i + 1 < nmem then
          match (s, marr.(i + 1).Op.sem) with
          | Op.Elt a, Some (Op.Elt b)
            when String.equal b.Op.e_x a.Op.e_out
                 && Axis.equal_sets
                      (List.map fst a.Op.e_dims)
                      (List.map fst b.Op.e_dims) ->
              chained_into.(i + 1) <- Some a.Op.e_out
          | _ -> ())
      tagged;
    let alive i c =
      List.mem c external_writes
      || begin
           let rec scan j =
             if j >= nmem then false
             else begin
               let reads_it = List.mem c marr.(j).Op.reads in
               let via_chain =
                 j = i + 1
                 && chained_into.(j) = Some c
                 && (match marr.(j).Op.sem with
                    | Some (Op.Elt b) -> b.Op.e_operand <> Some c
                    | _ -> true)
               in
               if reads_it && not via_chain then true else scan (j + 1)
             end
           in
           scan (i + 1)
         end
    in
    let steps =
      List.fold_left
        (fun acc (i, ((m : Op.t), s)) ->
          match s with
          | Op.Contract _ -> assert false (* filtered out above *)
          | Op.Red r -> Red (m, r) :: acc
          | Op.Elt e ->
              let stage =
                { cs_op = m; cs_sem = e; cs_store = alive i e.Op.e_out }
              in
              begin
                match acc with
                | Chain cs :: rest when chained_into.(i) <> None ->
                    Chain (cs @ [ stage ]) :: rest
                | _ -> Chain [ stage ] :: acc
              end)
        [] tagged
      |> List.rev
    in
    Some
      (fun env ->
        List.iter
          (function
            | Chain stages -> run_chain env stages
            | Red (op, r) -> run_red env op r)
          steps)
  end

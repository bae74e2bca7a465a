type t = {
  hp : Hparams.t;
  vocab : int;
  n_layers : int;
  embedding : Dense.t;
  layer_params : (string * Dense.t) list array;
}

let create ?(n_layers = 2) ?(vocab = 16) (hp : Hparams.t) =
  let prng = Prng.of_key hp.seed "model" in
  {
    hp;
    vocab;
    n_layers;
    embedding = Dense.randn prng [ ("v", vocab); ("i", hp.embed) ] ~stddev:0.05;
    layer_params =
      Array.init n_layers (fun layer ->
          let hp_l =
            { hp with seed = Int64.add hp.seed (Int64.of_int (layer + 1)) }
          in
          Params.init hp_l);
  }

type layer_cache = {
  saved : (string * Dense.t) list;
  backward_plan : Compile.Compiled.plan;
}

type cache = {
  tokens : int array array;
  x0 : Dense.t;
  layers : layer_cache array;
  y : Dense.t;
  logits : Dense.t;
}

(* Embedding rows gathered into an [i, b, j] activation: column (b, j) is
   row [token b j] of the embedding. *)
let embed m hp token =
  let x = Dense.zeros (Hparams.dims_x hp) in
  let xd = Dense.unsafe_data x and ed = Dense.unsafe_data m.embedding in
  let es = Dense.strides_for m.embedding [ "v"; "i" ] in
  let xs = Dense.strides_for x [ "i"; "b"; "j" ] in
  for b = 0 to hp.Hparams.batch - 1 do
    for j = 0 to hp.Hparams.seq - 1 do
      let row = token b j * es.(0) and col = (b * xs.(1)) + (j * xs.(2)) in
      for i = 0 to hp.Hparams.embed - 1 do
        xd.(col + (i * xs.(0))) <- ed.(row + (i * es.(1)))
      done
    done
  done;
  x

(* One encoder layer as two plans over the split of [Encoder.program_with].
   The forward keeps exactly what the backward reads of it, plus its input
   [x] (its regime's [keep]), and is fused and memory-planned around that
   set; the backward runs on the saved set, the params and [d_y].
   Structure depends only on (hp, activation, causal), so after the first
   compile of a geometry both are plan-cache hits that re-run zero
   passes. *)
let layer_plans hp ~activation ~causal =
  let p = Encoder.program_with ~activation ~causal hp in
  let fwd = Ops.Program.forward_ops p and bwd = Ops.Program.backward_ops p in
  let written = List.concat_map (fun (o : Ops.Op.t) -> o.writes) fwd in
  let read = List.concat_map (fun (o : Ops.Op.t) -> o.reads) bwd in
  let saved =
    List.sort_uniq String.compare
      ("x" :: List.filter (fun c -> List.mem c written) read)
  in
  let plan regime ops =
    Compile.Compiled.compile ~name_table:Encoder.kernel_names regime
      (Ops.Program.replace_ops p ops)
  in
  ( plan (Compile.Regime.current ~keep:saved ()) fwd,
    plan (Compile.Regime.current ()) bwd )

(* Warm the plan cache for a geometry before the hot loop starts. *)
let precompile ?(causal = false) ?(activation = `Relu) m ~batch ~seq =
  let hp = { m.hp with Hparams.batch; seq } in
  ignore (layer_plans hp ~activation ~causal)

(* Like [forward], but batch/seq follow the token array and the layer
   program can be the causal decoder block ([forward] is the training
   special case). Serves as the full-recompute decoding oracle. *)
let forward_with ?(causal = false) ?(activation = `Relu) m ~tokens =
  let b = Array.length tokens in
  if b = 0 then invalid_arg "Model.forward_with: empty batch";
  let hp =
    { m.hp with Hparams.batch = b; seq = Array.length tokens.(0) }
  in
  let x0 = embed m hp (fun b j -> tokens.(b).(j)) in
  let x = ref x0 in
  let layers =
    Array.init m.n_layers (fun layer ->
        let fwd, backward_plan = layer_plans hp ~activation ~causal in
        let env =
          Compile.Compiled.execute fwd (("x", !x) :: m.layer_params.(layer))
        in
        x := Ops.Op.lookup env "y";
        let keep = fwd.Compile.Compiled.regime.Compile.Regime.keep in
        let saved = List.map (fun c -> (c, Ops.Op.lookup env c)) keep in
        { saved; backward_plan })
  in
  let y = !x in
  let logits = Einsum.eval "vi,ibj->vbj" [ m.embedding; y ] in
  { tokens; x0; layers; y; logits }

let forward m ~tokens = forward_with m ~tokens

type grads = {
  d_embedding : Dense.t;
  d_layers : (string * Dense.t) list array;
}

let backward m cache ~d_logits =
  (* head: logits = W_e y, with W_e the tied embedding *)
  let d_y = Einsum.eval "vi,vbj->ibj" [ m.embedding; d_logits ] in
  let d_emb_head = Einsum.eval "ibj,vbj->vi" [ cache.y; d_logits ] in
  let d_layers = Array.make m.n_layers [] in
  let d = ref d_y in
  for layer = m.n_layers - 1 downto 0 do
    let l = cache.layers.(layer) in
    let env =
      Compile.Compiled.execute l.backward_plan
        ((("d_y", !d) :: l.saved) @ m.layer_params.(layer))
    in
    d_layers.(layer) <-
      List.map
        (fun p -> (p, Ops.Op.lookup env (Encoder.grad p)))
        Encoder.param_names;
    d := Ops.Op.lookup env "d_x"
  done;
  (* scatter the input gradient into the embedding rows, positions in
     (b, j) order *)
  let scatter = Dense.zeros [ ("v", m.vocab); ("i", m.hp.Hparams.embed) ] in
  let sd = Dense.unsafe_data scatter and dd = Dense.unsafe_data !d in
  let ss = Dense.strides_for scatter [ "v"; "i" ] in
  let ds = Dense.strides_for !d [ "i"; "b"; "j" ] in
  Array.iteri
    (fun b row ->
      Array.iteri
        (fun j token ->
          let dst = token * ss.(0) and src = (b * ds.(1)) + (j * ds.(2)) in
          for i = 0 to m.hp.Hparams.embed - 1 do
            let k = dst + (i * ss.(1)) in
            sd.(k) <- sd.(k) +. dd.(src + (i * ds.(0)))
          done)
        row)
    cache.tokens;
  { d_embedding = Dense.add d_emb_head scatter; d_layers }

let cross_entropy ~logits ~targets =
  let shape = Dense.shape logits in
  let v = Shape.size shape "v"
  and b = Shape.size shape "b"
  and j = Shape.size shape "j" in
  let count = float_of_int (b * j) in
  (* [d] shares the logits' storage order, hence their strides *)
  let d = Dense.zeros (Shape.to_list shape) in
  let ld = Dense.unsafe_data logits and dd = Dense.unsafe_data d in
  let st = Dense.strides_for logits [ "v"; "b"; "j" ] in
  let loss = ref 0.0 in
  for bi = 0 to b - 1 do
    for ji = 0 to j - 1 do
      let at vi = (vi * st.(0)) + (bi * st.(1)) + (ji * st.(2)) in
      let mx = ref neg_infinity in
      for vi = 0 to v - 1 do
        mx := Float.max !mx ld.(at vi)
      done;
      let z = ref 0.0 in
      for vi = 0 to v - 1 do
        z := !z +. exp (ld.(at vi) -. !mx)
      done;
      let target = targets.(bi).(ji) in
      loss := !loss -. ((ld.(at target) -. !mx -. log !z) /. count);
      for vi = 0 to v - 1 do
        let p = exp (ld.(at vi) -. !mx) /. !z in
        let onehot = if vi = target then 1.0 else 0.0 in
        dd.(at vi) <- (p -. onehot) /. count
      done
    done
  done;
  (!loss, d)

let update_in_place p g ~lr =
  let pd = Dense.unsafe_data p and gd = Dense.unsafe_data (Dense.align g p) in
  Array.iteri (fun i v -> pd.(i) <- v -. (lr *. gd.(i))) (Array.copy pd)

(* [f p g name layer] for every layer parameter [p] with a gradient [g]. *)
let iter_layer_grads m grads f =
  Array.iteri
    (fun layer params ->
      List.iter
        (fun (name, p) ->
          Option.iter
            (fun g -> f p g name layer)
            (List.assoc_opt name grads.d_layers.(layer)))
        params)
    m.layer_params

let sgd_step m grads ~lr =
  update_in_place m.embedding grads.d_embedding ~lr;
  iter_layer_grads m grads (fun p g _ _ -> update_in_place p g ~lr)

type adam_state = {
  mutable step : int;
  m_embedding : Dense.t;
  v_embedding : Dense.t;
  m_layers : (string * Dense.t) list array;
  v_layers : (string * Dense.t) list array;
}

let adam_init m =
  let zeros_like p = Dense.zeros (Shape.to_list (Dense.shape p)) in
  let layers () =
    Array.map (List.map (fun (n, p) -> (n, zeros_like p))) m.layer_params
  in
  {
    step = 0;
    m_embedding = zeros_like m.embedding;
    v_embedding = zeros_like m.embedding;
    m_layers = layers ();
    v_layers = layers ();
  }

let adam_update ~beta1 ~beta2 ~eps ~lr ~step p g m1 v =
  let pd = Dense.unsafe_data p in
  let gd = Dense.unsafe_data (Dense.align g p) in
  (* moment buffers are created with exactly p's storage order, so their raw
     data can be mutated in place *)
  let md = Dense.unsafe_data m1 in
  let vd = Dense.unsafe_data v in
  let c1 = 1.0 -. (beta1 ** float_of_int step) in
  let c2 = 1.0 -. (beta2 ** float_of_int step) in
  for i = 0 to Array.length pd - 1 do
    md.(i) <- (beta1 *. md.(i)) +. ((1.0 -. beta1) *. gd.(i));
    vd.(i) <- (beta2 *. vd.(i)) +. ((1.0 -. beta2) *. gd.(i) *. gd.(i));
    let mhat = md.(i) /. c1 and vhat = vd.(i) /. c2 in
    pd.(i) <- pd.(i) -. (lr *. mhat /. (sqrt vhat +. eps))
  done

let adam_step ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8) m state grads ~lr =
  state.step <- state.step + 1;
  let step = state.step in
  adam_update ~beta1 ~beta2 ~eps ~lr ~step m.embedding grads.d_embedding
    state.m_embedding state.v_embedding;
  iter_layer_grads m grads (fun p g name layer ->
      adam_update ~beta1 ~beta2 ~eps ~lr ~step p g
        (List.assoc name state.m_layers.(layer))
        (List.assoc name state.v_layers.(layer)))

(* --- snapshot / restore (training checkpoints) ---------------------- *)

(* Plain-data copies of every parameter (and, for Adam, moment) buffer:
   marshalable, and restored by blitting back into the live tensors so
   aliases (the weight-tied output head reads [embedding] itself) stay
   intact. *)

type snapshot = {
  s_embedding : float array;
  s_layers : (string * float array) list array;
}

let copy_buffer t = Array.copy (Dense.unsafe_data t)
let copy_layers = Array.map (List.map (fun (n, p) -> (n, copy_buffer p)))

let snapshot m =
  let s_layers = copy_layers m.layer_params in
  { s_embedding = copy_buffer m.embedding; s_layers }

(* Blit [src] into tensor [t] in place. *)
let blit_into ~what src t =
  let dst = Dense.unsafe_data t in
  if Array.length src <> Array.length dst then
    invalid_arg
      (Printf.sprintf
         "Model.restore: snapshot buffer %s has %d elements, model has %d \
          (snapshot from a different model?)"
         what (Array.length src) (Array.length dst));
  Array.blit src 0 dst 0 (Array.length src)

let restore_layers ~what snap live =
  if Array.length snap <> Array.length live then
    invalid_arg "Model.restore: snapshot layer count differs from model";
  Array.iteri
    (fun layer params ->
      List.iter
        (fun (name, p) ->
          match List.assoc_opt name snap.(layer) with
          | Some buf -> blit_into ~what:(what ^ name) buf p
          | None ->
              invalid_arg ("Model.restore: snapshot is missing " ^ what ^ name))
        params)
    live

let restore m s =
  blit_into ~what:"embedding" s.s_embedding m.embedding;
  restore_layers ~what:"" s.s_layers m.layer_params

type adam_snapshot = {
  a_step : int;
  a_m_embedding : float array;
  a_v_embedding : float array;
  a_m_layers : (string * float array) list array;
  a_v_layers : (string * float array) list array;
}

let adam_snapshot st =
  {
    a_step = st.step;
    a_m_embedding = copy_buffer st.m_embedding;
    a_v_embedding = copy_buffer st.v_embedding;
    a_m_layers = copy_layers st.m_layers;
    a_v_layers = copy_layers st.v_layers;
  }

let adam_restore st s =
  st.step <- s.a_step;
  blit_into ~what:"adam.m_embedding" s.a_m_embedding st.m_embedding;
  blit_into ~what:"adam.v_embedding" s.a_v_embedding st.v_embedding;
  restore_layers ~what:"adam.m." s.a_m_layers st.m_layers;
  restore_layers ~what:"adam.v." s.a_v_layers st.v_layers

let parameter_count m =
  Dense.volume m.embedding
  + Array.fold_left
      (fun acc params ->
        List.fold_left (fun acc (_, p) -> acc + Dense.volume p) acc params)
      0 m.layer_params

(* --- inference: KV-cached incremental decoding ----------------------- *)

type session = {
  sess_model : t;
  kv : Mha.cache array;  (* one per layer *)
}

let new_session m =
  {
    sess_model = m;
    kv = Array.init m.n_layers (fun _ -> Mha.cache_create m.hp);
  }

let session_len s = if Array.length s.kv = 0 then 0 else Mha.cache_len s.kv.(0)

(* One incremental decode step for a ragged batch of sessions: feeds token
   [tokens.(b)] to [sessions.(b)] and returns the logits column, dims
   (v, b, j=1). New K/V columns are staged per layer and committed only
   after every layer has succeeded, so a mid-step crash or deadline abort
   leaves the sessions exactly as they were. *)
let decode_batch m sessions ~tokens =
  let nb = Array.length sessions in
  if nb = 0 then invalid_arg "Model.decode_batch: empty batch";
  if Array.length tokens <> nb then
    invalid_arg "Model.decode_batch: sessions/tokens length mismatch";
  Array.iter
    (fun s ->
      if s.sess_model != m then
        invalid_arg "Model.decode_batch: session belongs to a different model")
    sessions;
  if m.hp.Hparams.dropout_p <> 0.0 then
    invalid_arg "Model.decode_batch: requires dropout_p = 0 (inference)";
  let hp = { m.hp with Hparams.batch = nb; seq = 1 } in
  let x = ref (embed m hp (fun b _ -> tokens.(b))) in
  let staged =
    Array.init m.n_layers (fun layer ->
        let caches = Array.map (fun s -> s.kv.(layer)) sessions in
        let y, knew, vnew =
          Decoder.cached_step hp ~params:m.layer_params.(layer) ~caches !x
        in
        x := y;
        (knew, vnew))
  in
  Array.iteri
    (fun layer (knew, vnew) ->
      Array.iteri
        (fun b s -> Mha.cache_append s.kv.(layer) ~k:knew ~v:vnew ~b)
        sessions)
    staged;
  Einsum.eval "vi,ibj->vbj" [ m.embedding; !x ]

(* Slot b's vocabulary column at the last position of a logits tensor. *)
let logits_column logits ~b =
  let shape = Dense.shape logits in
  let v = Shape.size shape "v" and j = Shape.size shape "j" in
  Array.init v (fun vi -> Dense.get logits [ ("v", vi); ("b", b); ("j", j - 1) ])

(* Full-recompute oracle: run the causal decoder stack over the whole
   prefix and return the final position's vocabulary column. The KV-cached
   path must reproduce this bitwise (test_serve checks it). *)
let decode_oracle m ~prompt =
  if Array.length prompt = 0 then
    invalid_arg "Model.decode_oracle: empty prompt";
  if m.hp.Hparams.dropout_p <> 0.0 then
    invalid_arg "Model.decode_oracle: requires dropout_p = 0 (inference)";
  let cache = forward_with ~causal:true ~activation:`Gelu m ~tokens:[| prompt |] in
  logits_column cache.logits ~b:0

(* Greedy sampling: lowest index wins ties, so generation is deterministic
   on both the cached and the oracle path. *)
let argmax col =
  let best = ref 0 in
  Array.iteri (fun i v -> if v > col.(!best) then best := i) col;
  !best

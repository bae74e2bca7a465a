type activations = {
  alpha_sm : Dense.t;
  gamma : Dense.t;
  attn : Dense.t;
  ln1_out : Dense.t;
  y : Dense.t;
}

let get params name =
  match List.assoc_opt name params with
  | Some t -> t
  | None -> invalid_arg ("Reference: missing parameter " ^ name)

let softmax x ~axis ~prescale =
  let xs = Dense.scale prescale x in
  let mx = Dense.max_over xs [ axis ] in
  let e = Dense.map Fmath.exp (Dense.add_bcast xs (Dense.scale (-1.0) mx)) in
  let s = Dense.sum_over e [ axis ] in
  Dense.mul_bcast e (Dense.map (fun v -> 1.0 /. v) s)

let layernorm x ~gamma ~beta ~axis ~eps =
  let mean = Dense.mean_over x [ axis ] in
  let diff = Dense.add_bcast x (Dense.scale (-1.0) mean) in
  let var = Dense.mean_over (Dense.mul diff diff) [ axis ] in
  let istd = Dense.map (fun v -> 1.0 /. sqrt (v +. eps)) var in
  Dense.add_bcast (Dense.mul_bcast (Dense.mul_bcast diff istd) gamma) beta

let dropout (hp : Hparams.t) name x dims =
  if hp.dropout_p = 0.0 then x
  else
    let mask =
      Ops.Elementwise.dropout_mask ~seed:hp.seed ~name dims ~p:hp.dropout_p
    in
    Dense.mul x mask

let attention (hp : Hparams.t) ~q ~k ~v ~params =
  let qq =
    Dense.add_bcast
      (Einsum.eval "phi,ibj->phbj" [ get params "wq"; q ])
      (get params "bq")
  in
  let kk =
    Dense.add_bcast
      (Einsum.eval "phi,ibk->phbk" [ get params "wk"; k ])
      (get params "bk")
  in
  let vv =
    Dense.add_bcast
      (Einsum.eval "whi,ibk->whbk" [ get params "wv"; v ])
      (get params "bv")
  in
  let beta = Einsum.eval "phbk,phbj->hbjk" [ kk; qq ] in
  let alpha_sm = softmax beta ~axis:"k" ~prescale:(Hparams.scaler hp) in
  (* mask dims follow the actual attention shape: in cross-attention the
     key length K can differ from the hyperparameters' sequence length *)
  let alpha =
    dropout hp "attn_dropout" alpha_sm (Shape.to_list (Dense.shape alpha_sm))
  in
  let gamma = Einsum.eval "whbk,hbjk->whbj" [ vv; alpha ] in
  let attn = Einsum.eval "whi,whbj->ibj" [ get params "wo"; gamma ] in
  (alpha_sm, gamma, attn)

let forward (hp : Hparams.t) ~x ~params =
  let k = Dense.rename_axes x [ ("j", "k") ] in
  let alpha_sm, gamma, attn = attention hp ~q:x ~k ~v:k ~params in
  let attn_b = Dense.add_bcast attn (get params "bo") in
  let drop1 = dropout hp "attn_out_dropout" attn_b (Hparams.dims_x hp) in
  let res1 = Dense.add drop1 x in
  let ln1_out =
    layernorm res1 ~gamma:(get params "ln1_g") ~beta:(get params "ln1_b")
      ~axis:"i" ~eps:hp.eps
  in
  let ff1 =
    Dense.add_bcast
      (Einsum.eval "ui,ibj->ubj" [ get params "w1"; ln1_out ])
      (get params "b1")
  in
  let act = Dense.map (fun v -> Float.max 0.0 v) ff1 in
  let drop2 = dropout hp "ff_dropout" act (Hparams.dims_ff hp) in
  let ff2 =
    Dense.add_bcast
      (Einsum.eval "iu,ubj->ibj" [ get params "w2"; drop2 ])
      (get params "b2")
  in
  let drop3 = dropout hp "out_dropout" ff2 (Hparams.dims_x hp) in
  let res2 = Dense.add drop3 ln1_out in
  let y =
    layernorm res2 ~gamma:(get params "ln2_g") ~beta:(get params "ln2_b")
      ~axis:"i" ~eps:hp.eps
  in
  { alpha_sm; gamma; attn; ln1_out; y }

let mha_forward hp ~q ~k ~v ~params =
  let _, _, attn = attention hp ~q ~k ~v ~params in
  Dense.add_bcast attn (get params "bo")

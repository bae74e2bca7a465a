type qkv_variant = Qkv_separate | Qk_fused | Qkv_fused

let variant_to_string = function
  | Qkv_separate -> "unfused"
  | Qk_fused -> "QK fused"
  | Qkv_fused -> "QKV fused"

let param_names =
  [
    "wq"; "wk"; "wv"; "bq"; "bk"; "bv"; "wo"; "bo"; "ln1_g"; "ln1_b"; "w1";
    "b1"; "w2"; "b2"; "ln2_g"; "ln2_b";
  ]

let grad name = "d_" ^ name

let containers (hp : Hparams.t) =
  let d axes = Hparams.pick_dims hp axes in
  let x = d [ "i"; "b"; "j" ] in
  let qq = d [ "p"; "h"; "b"; "j" ] in
  let kk = d [ "p"; "h"; "b"; "k" ] in
  let vv = d [ "w"; "h"; "b"; "k" ] in
  let beta = d [ "h"; "b"; "j"; "k" ] in
  let gam = d [ "w"; "h"; "b"; "j" ] in
  let ff = d [ "u"; "b"; "j" ] in
  let stats = d [ "b"; "j" ] in
  let forward =
    [
      ("x", x);
      ("wq", d [ "p"; "h"; "i" ]);
      ("wk", d [ "p"; "h"; "i" ]);
      ("wv", d [ "w"; "h"; "i" ]);
      ("bq", d [ "p"; "h" ]);
      ("bk", d [ "p"; "h" ]);
      ("bv", d [ "w"; "h" ]);
      ("wo", d [ "w"; "h"; "i" ]);
      ("bo", d [ "i" ]);
      ("ln1_g", d [ "i" ]);
      ("ln1_b", d [ "i" ]);
      ("w1", d [ "u"; "i" ]);
      ("b1", d [ "u" ]);
      ("w2", d [ "i"; "u" ]);
      ("b2", d [ "i" ]);
      ("ln2_g", d [ "i" ]);
      ("ln2_b", d [ "i" ]);
      ("qq", qq);
      ("kk", kk);
      ("vv", vv);
      ("qqb", qq);
      ("kkb", kk);
      ("vvb", vv);
      ("beta", beta);
      ("alpha_sm", beta);
      ("alpha", beta);
      ("attn_mask", beta);
      ("gam", gam);
      ("attn_out", x);
      ("attn_b", x);
      ("drop1", x);
      ("mask1", x);
      ("res1", x);
      ("ln1_out", x);
      ("ln1_mean", stats);
      ("ln1_istd", stats);
      ("ff1", ff);
      ("ff1b", ff);
      ("act", ff);
      ("drop2", ff);
      ("mask2", ff);
      ("ff2", x);
      ("ff2b", x);
      ("drop3", x);
      ("mask3", x);
      ("res2", x);
      ("y", x);
      ("ln2_mean", stats);
      ("ln2_istd", stats);
    ]
  in
  let backward =
    [
      ("d_y", x);
      ("d_res2", x);
      ("d_ff2b", x);
      ("d_drop2", ff);
      ("d_act", ff);
      ("d_ff1b", ff);
      ("d_ln1_lin", x);
      ("d_ln1", x);
      ("d_res1", x);
      ("d_attn_b", x);
      ("d_gam", gam);
      ("d_alpha", beta);
      ("d_alpha_sm", beta);
      ("d_beta", beta);
      ("d_qqb", qq);
      ("d_kkb", kk);
      ("d_vvb", vv);
      ("d_x_attn", x);
      ("d_x_q", x);
      ("d_x_k", x);
      ("d_x_v", x);
      ("d_x_qk", x);
      ("d_x", x);
      ("d_wq", d [ "p"; "h"; "i" ]);
      ("d_wk", d [ "p"; "h"; "i" ]);
      ("d_wv", d [ "w"; "h"; "i" ]);
      ("d_bq", d [ "p"; "h" ]);
      ("d_bk", d [ "p"; "h" ]);
      ("d_bv", d [ "w"; "h" ]);
      ("d_wo", d [ "w"; "h"; "i" ]);
      ("d_bo", d [ "i" ]);
      ("d_ln1_g", d [ "i" ]);
      ("d_ln1_b", d [ "i" ]);
      ("d_w1", d [ "u"; "i" ]);
      ("d_b1", d [ "u" ]);
      ("d_w2", d [ "i"; "u" ]);
      ("d_b2", d [ "i" ]);
      ("d_ln2_g", d [ "i" ]);
      ("d_ln2_b", d [ "i" ]);
    ]
  in
  forward @ backward

(* Forward Q/K/V input projections under the three algebraic-fusion
   strategies of §IV-D. *)
let qkv_forward (hp : Hparams.t) variant =
  let dims = Hparams.dims hp in
  let part = Ops.Contraction.part in
  let x_as_k = [ ("x", [ ("j", "k") ]) ] in
  let q = part ~spec:"phi,ibj->phbj" ~inputs:[ "wq"; "x" ] ~output:"qq" () in
  let k =
    part ~renames:x_as_k ~spec:"phi,ibk->phbk" ~inputs:[ "wk"; "x" ]
      ~output:"kk" ()
  in
  let v =
    part ~renames:x_as_k ~spec:"whi,ibk->whbk" ~inputs:[ "wv"; "x" ]
      ~output:"vv" ()
  in
  match variant with
  | Qkv_fused ->
      [
        Ops.Contraction.grouped ~name:"qkv" ~dims
          ~group_role:Ops.Contraction.Group_m [ q; k; v ] ();
      ]
  | Qk_fused ->
      [
        Ops.Contraction.grouped ~name:"qkv_qk" ~dims
          ~group_role:Ops.Contraction.Group_m [ q; k ] ();
        Ops.Contraction.einsum ~name:"qkv_v" ~dims v ();
      ]
  | Qkv_separate ->
      [
        Ops.Contraction.einsum ~name:"qkv_q" ~dims q ();
        Ops.Contraction.einsum ~name:"qkv_k" ~dims k ();
        Ops.Contraction.einsum ~name:"qkv_v" ~dims v ();
      ]

(* Backward dX and dW of the projections under the same strategies. *)
let qkv_backward (hp : Hparams.t) variant =
  let dims = Hparams.dims hp in
  let part = Ops.Contraction.part in
  let dx_q = part ~spec:"phi,phbj->ibj" ~inputs:[ "wq"; "d_qqb" ] in
  let dx_k =
    part
      ~renames:[ ("d_kkb", [ ("k", "j") ]) ]
      ~spec:"phi,phbj->ibj" ~inputs:[ "wk"; "d_kkb" ]
  in
  let dx_v =
    part
      ~renames:[ ("d_vvb", [ ("k", "j") ]) ]
      ~spec:"whi,whbj->ibj" ~inputs:[ "wv"; "d_vvb" ]
  in
  let dw_q = part ~spec:"ibj,phbj->phi" ~inputs:[ "x"; "d_qqb" ] ~output:"d_wq" () in
  let dw_k =
    part
      ~renames:[ ("x", [ ("j", "k") ]) ]
      ~spec:"ibk,phbk->phi" ~inputs:[ "x"; "d_kkb" ] ~output:"d_wk" ()
  in
  let dw_v =
    part
      ~renames:[ ("x", [ ("j", "k") ]) ]
      ~spec:"ibk,whbk->whi" ~inputs:[ "x"; "d_vvb" ] ~output:"d_wv" ()
  in
  match variant with
  | Qkv_fused ->
      [
        Ops.Contraction.grouped ~name:"qkv_dx" ~dims ~backward:true
          ~group_role:Ops.Contraction.Group_k ~accumulate:true
          [
            dx_q ~output:"d_x_attn" ();
            dx_k ~output:"d_x_attn" ();
            dx_v ~output:"d_x_attn" ();
          ]
          ();
        Ops.Contraction.grouped ~name:"qkv_dw" ~dims ~backward:true
          ~group_role:Ops.Contraction.Group_n [ dw_q; dw_k; dw_v ] ();
      ]
  | Qk_fused ->
      [
        Ops.Contraction.grouped ~name:"qkv_dx_qk" ~dims ~backward:true
          ~group_role:Ops.Contraction.Group_k ~accumulate:true
          [ dx_q ~output:"d_x_qk" (); dx_k ~output:"d_x_qk" () ]
          ();
        Ops.Contraction.einsum ~name:"qkv_dx_v" ~dims ~backward:true
          (dx_v ~output:"d_x_v" ())
          ();
        Ops.Elementwise.add ~name:"qkv_dx_acc" ~x:"d_x_qk" ~y:"d_x_v"
          ~out:"d_x_attn" (Hparams.dims_x hp) ~backward:true ();
        Ops.Contraction.grouped ~name:"qkv_dw_qk" ~dims ~backward:true
          ~group_role:Ops.Contraction.Group_n [ dw_q; dw_k ] ();
        Ops.Contraction.einsum ~name:"qkv_dw_v" ~dims ~backward:true dw_v ();
      ]
  | Qkv_separate ->
      [
        Ops.Contraction.einsum ~name:"qkv_dx_q" ~dims ~backward:true
          (dx_q ~output:"d_x_q" ())
          ();
        Ops.Contraction.einsum ~name:"qkv_dx_k" ~dims ~backward:true
          (dx_k ~output:"d_x_k" ())
          ();
        Ops.Contraction.einsum ~name:"qkv_dx_v" ~dims ~backward:true
          (dx_v ~output:"d_x_v" ())
          ();
        Ops.Elementwise.add ~name:"qkv_dx_acc1" ~x:"d_x_q" ~y:"d_x_k"
          ~out:"d_x_qk" (Hparams.dims_x hp) ~backward:true ();
        Ops.Elementwise.add ~name:"qkv_dx_acc2" ~x:"d_x_qk" ~y:"d_x_v"
          ~out:"d_x_attn" (Hparams.dims_x hp) ~backward:true ();
        Ops.Contraction.einsum ~name:"qkv_dw_q" ~dims ~backward:true dw_q ();
        Ops.Contraction.einsum ~name:"qkv_dw_k" ~dims ~backward:true dw_k ();
        Ops.Contraction.einsum ~name:"qkv_dw_v" ~dims ~backward:true dw_v ();
      ]

let forward_ops ?(variant = Qkv_fused) ?(activation = `Relu) ?(causal = false)
    (hp : Hparams.t) =
  let dims = Hparams.dims hp in
  let seed = hp.seed in
  let p_drop = hp.dropout_p in
  let prescale = Hparams.scaler hp in
  let part = Ops.Contraction.part in
  let act_op =
    match activation with
    | `Relu -> Ops.Elementwise.relu ~name:"relu" ~x:"ff1b" ~out:"act" (Hparams.dims_ff hp) ()
    | `Gelu -> Ops.Elementwise.gelu ~name:"gelu" ~x:"ff1b" ~out:"act" (Hparams.dims_ff hp) ()
  in
  let causal_opt = if causal then Some ("j", "k") else None in
  qkv_forward hp variant
  @ [
    Ops.Elementwise.bias ~name:"bias_q" ~x:"qq" ~bias:"bq" ~out:"qqb"
      (Hparams.dims_qq hp) ~bias_axes:[ "p"; "h" ] ();
    Ops.Elementwise.bias ~name:"bias_k" ~x:"kk" ~bias:"bk" ~out:"kkb"
      (Hparams.dims_kk hp) ~bias_axes:[ "p"; "h" ] ();
    Ops.Elementwise.bias ~name:"bias_v" ~x:"vv" ~bias:"bv" ~out:"vvb"
      (Hparams.dims_vv hp) ~bias_axes:[ "w"; "h" ] ();
    Ops.Contraction.einsum ~name:"qkt" ~dims
      (part ~spec:"phbk,phbj->hbjk" ~inputs:[ "kkb"; "qqb" ] ~output:"beta" ())
      ();
    Ops.Normalization.softmax ~name:"softmax" ~x:"beta" ~out:"alpha_sm"
      (Hparams.dims_beta hp) ~axis:"k" ~prescale ?causal:causal_opt ();
    Ops.Elementwise.dropout ~name:"attn_dropout" ~x:"alpha_sm" ~out:"alpha"
      ~mask:"attn_mask" (Hparams.dims_beta hp) ~p:p_drop ~seed ();
    Ops.Contraction.einsum ~name:"gamma" ~dims
      (part ~spec:"whbk,hbjk->whbj" ~inputs:[ "vvb"; "alpha" ] ~output:"gam" ())
      ();
    Ops.Contraction.einsum ~name:"out" ~dims
      (part ~spec:"whi,whbj->ibj" ~inputs:[ "wo"; "gam" ] ~output:"attn_out" ())
      ();
    Ops.Elementwise.bias ~name:"output_bias" ~x:"attn_out" ~bias:"bo"
      ~out:"attn_b" (Hparams.dims_x hp) ~bias_axes:[ "i" ] ();
    Ops.Elementwise.dropout ~name:"attn_out_dropout" ~x:"attn_b" ~out:"drop1"
      ~mask:"mask1" (Hparams.dims_x hp) ~p:p_drop ~seed ();
    Ops.Elementwise.add ~name:"residual1" ~x:"drop1" ~y:"x" ~out:"res1"
      (Hparams.dims_x hp) ();
    Ops.Normalization.layernorm ~name:"ln1" ~x:"res1" ~gamma:"ln1_g"
      ~beta:"ln1_b" ~out:"ln1_out" ~mean:"ln1_mean" ~istd:"ln1_istd"
      (Hparams.dims_x hp) ~axis:"i" ~eps:hp.eps ();
    Ops.Contraction.einsum ~name:"lin1" ~dims
      (part ~spec:"ui,ibj->ubj" ~inputs:[ "w1"; "ln1_out" ] ~output:"ff1" ())
      ();
    Ops.Elementwise.bias ~name:"bias1" ~x:"ff1" ~bias:"b1" ~out:"ff1b"
      (Hparams.dims_ff hp) ~bias_axes:[ "u" ] ();
    act_op;
    Ops.Elementwise.dropout ~name:"ff_dropout" ~x:"act" ~out:"drop2"
      ~mask:"mask2" (Hparams.dims_ff hp) ~p:p_drop ~seed ();
    Ops.Contraction.einsum ~name:"lin2" ~dims
      (part ~spec:"iu,ubj->ibj" ~inputs:[ "w2"; "drop2" ] ~output:"ff2" ())
      ();
    Ops.Elementwise.bias ~name:"bias2" ~x:"ff2" ~bias:"b2" ~out:"ff2b"
      (Hparams.dims_x hp) ~bias_axes:[ "i" ] ();
    Ops.Elementwise.dropout ~name:"out_dropout" ~x:"ff2b" ~out:"drop3"
      ~mask:"mask3" (Hparams.dims_x hp) ~p:p_drop ~seed ();
    Ops.Elementwise.add ~name:"residual2" ~x:"drop3" ~y:"ln1_out" ~out:"res2"
      (Hparams.dims_x hp) ();
    Ops.Normalization.layernorm ~name:"ln2" ~x:"res2" ~gamma:"ln2_g"
      ~beta:"ln2_b" ~out:"y" ~mean:"ln2_mean" ~istd:"ln2_istd"
      (Hparams.dims_x hp) ~axis:"i" ~eps:hp.eps ();
  ]

let backward_ops ?(variant = Qkv_fused) ?(activation = `Relu) (hp : Hparams.t)
    =
  let dims = Hparams.dims hp in
  let p_drop = hp.dropout_p in
  let prescale = Hparams.scaler hp in
  let part = Ops.Contraction.part in
  let bwd op = { op with Ops.Op.backward = true } in
  let act_dx_op =
    match activation with
    | `Relu ->
        Ops.Elementwise.relu_dx ~name:"relu_dx" ~dy:"d_act" ~x:"ff1b"
          ~out:"d_ff1b" (Hparams.dims_ff hp)
    | `Gelu ->
        Ops.Elementwise.gelu_dx ~name:"gelu_dx" ~dy:"d_act" ~x:"ff1b"
          ~out:"d_ff1b" (Hparams.dims_ff hp)
  in
  List.map bwd
    ([
      Ops.Normalization.layernorm_dw ~name:"ln2_dw" ~dy:"d_y" ~x:"res2"
        ~mean:"ln2_mean" ~istd:"ln2_istd" ~dgamma:"d_ln2_g" ~dbeta:"d_ln2_b"
        (Hparams.dims_x hp) ~axis:"i";
      Ops.Normalization.layernorm_dx ~name:"ln2_dx" ~dy:"d_y" ~x:"res2"
        ~gamma:"ln2_g" ~mean:"ln2_mean" ~istd:"ln2_istd" ~out:"d_res2"
        (Hparams.dims_x hp) ~axis:"i";
      Ops.Elementwise.dropout_dx ~name:"out_dropout_dx" ~dy:"d_res2"
        ~mask:"mask3" ~out:"d_ff2b" (Hparams.dims_x hp) ~p:p_drop;
      Ops.Elementwise.bias_dw ~name:"bias2_dw" ~dy:"d_ff2b" ~out:"d_b2"
        (Hparams.dims_x hp) ~bias_axes:[ "i" ];
      Ops.Contraction.einsum ~name:"lin2_dx" ~dims ~backward:true
        (part ~spec:"iu,ibj->ubj" ~inputs:[ "w2"; "d_ff2b" ] ~output:"d_drop2"
           ())
        ();
      Ops.Contraction.einsum ~name:"lin2_dw" ~dims ~backward:true
        (part ~spec:"ubj,ibj->iu" ~inputs:[ "drop2"; "d_ff2b" ] ~output:"d_w2"
           ())
        ();
      Ops.Elementwise.dropout_dx ~name:"ff_dropout_dx" ~dy:"d_drop2"
        ~mask:"mask2" ~out:"d_act" (Hparams.dims_ff hp) ~p:p_drop;
      act_dx_op;
      Ops.Elementwise.bias_dw ~name:"bias1_dw" ~dy:"d_ff1b" ~out:"d_b1"
        (Hparams.dims_ff hp) ~bias_axes:[ "u" ];
      Ops.Contraction.einsum ~name:"lin1_dx" ~dims ~backward:true
        (part ~spec:"ui,ubj->ibj" ~inputs:[ "w1"; "d_ff1b" ]
           ~output:"d_ln1_lin" ())
        ();
      Ops.Contraction.einsum ~name:"lin1_dw" ~dims ~backward:true
        (part ~spec:"ibj,ubj->ui" ~inputs:[ "ln1_out"; "d_ff1b" ]
           ~output:"d_w1" ())
        ();
      Ops.Elementwise.add ~name:"residual2_dx" ~x:"d_ln1_lin" ~y:"d_res2"
        ~out:"d_ln1" (Hparams.dims_x hp) ~backward:true ();
      Ops.Normalization.layernorm_dw ~name:"ln1_dw" ~dy:"d_ln1" ~x:"res1"
        ~mean:"ln1_mean" ~istd:"ln1_istd" ~dgamma:"d_ln1_g" ~dbeta:"d_ln1_b"
        (Hparams.dims_x hp) ~axis:"i";
      Ops.Normalization.layernorm_dx ~name:"ln1_dx" ~dy:"d_ln1" ~x:"res1"
        ~gamma:"ln1_g" ~mean:"ln1_mean" ~istd:"ln1_istd" ~out:"d_res1"
        (Hparams.dims_x hp) ~axis:"i";
      Ops.Elementwise.dropout_dx ~name:"attn_out_dropout_dx" ~dy:"d_res1"
        ~mask:"mask1" ~out:"d_attn_b" (Hparams.dims_x hp) ~p:p_drop;
      Ops.Elementwise.bias_dw ~name:"output_bias_dw" ~dy:"d_attn_b"
        ~out:"d_bo" (Hparams.dims_x hp) ~bias_axes:[ "i" ];
      Ops.Contraction.einsum ~name:"out_dx" ~dims ~backward:true
        (part ~spec:"whi,ibj->whbj" ~inputs:[ "wo"; "d_attn_b" ]
           ~output:"d_gam" ())
        ();
      Ops.Contraction.einsum ~name:"out_dw" ~dims ~backward:true
        (part ~spec:"whbj,ibj->whi" ~inputs:[ "gam"; "d_attn_b" ]
           ~output:"d_wo" ())
        ();
      Ops.Contraction.einsum ~name:"gamma_dx1" ~dims ~backward:true
        (part ~spec:"whbk,whbj->hbjk" ~inputs:[ "vvb"; "d_gam" ]
           ~output:"d_alpha" ())
        ();
      Ops.Contraction.einsum ~name:"gamma_dx2" ~dims ~backward:true
        (part ~spec:"hbjk,whbj->whbk" ~inputs:[ "alpha"; "d_gam" ]
           ~output:"d_vvb" ())
        ();
      Ops.Elementwise.dropout_dx ~name:"attn_dropout_dx" ~dy:"d_alpha"
        ~mask:"attn_mask" ~out:"d_alpha_sm" (Hparams.dims_beta hp) ~p:p_drop;
      Ops.Normalization.softmax_dx ~name:"softmax_dx" ~dy:"d_alpha_sm"
        ~y:"alpha_sm" ~out:"d_beta" (Hparams.dims_beta hp) ~axis:"k" ~prescale
        ();
      Ops.Contraction.einsum ~name:"qkt_dx1" ~dims ~backward:true
        (part ~spec:"phbk,hbjk->phbj" ~inputs:[ "kkb"; "d_beta" ]
           ~output:"d_qqb" ())
        ();
      Ops.Contraction.einsum ~name:"qkt_dx2" ~dims ~backward:true
        (part ~spec:"phbj,hbjk->phbk" ~inputs:[ "qqb"; "d_beta" ]
           ~output:"d_kkb" ())
        ();
      Ops.Elementwise.bias_dw ~name:"bias_q_dw" ~dy:"d_qqb" ~out:"d_bq"
        (Hparams.dims_qq hp) ~bias_axes:[ "p"; "h" ];
      Ops.Elementwise.bias_dw ~name:"bias_k_dw" ~dy:"d_kkb" ~out:"d_bk"
        (Hparams.dims_kk hp) ~bias_axes:[ "p"; "h" ];
      Ops.Elementwise.bias_dw ~name:"bias_v_dw" ~dy:"d_vvb" ~out:"d_bv"
        (Hparams.dims_vv hp) ~bias_axes:[ "w"; "h" ];
     ]
    @ qkv_backward hp variant
    @ [
        Ops.Elementwise.add ~name:"residual1_dx" ~x:"d_x_attn" ~y:"d_res1"
          ~out:"d_x" (Hparams.dims_x hp) ~backward:true ();
      ])

let program_with ?(variant = Qkv_fused) ?(activation = `Relu) ?(causal = false)
    hp =
  Ops.Program.make ~containers:(containers hp)
    (forward_ops ~variant ~activation ~causal hp
    @ backward_ops ~variant ~activation hp)

let program hp = program_with ~variant:Qkv_fused hp

let forward_program hp =
  Ops.Program.make ~containers:(containers hp) (forward_ops hp)

let run hp ~x ~d_y ~params =
  let p = program hp in
  Ops.Program.run p ((("x", x) :: ("d_y", d_y) :: params))

let kernel_names =
  [
    ([ "bias_q"; "bias_k"; "bias_v" ], "AIB");
    ([ "softmax"; "attn_dropout" ], "SM");
    (* streaming-attention windows (the compiler's attention-window pass,
       or [Fusion.fuse ~attention:true]) *)
    ([ "qkt"; "softmax"; "attn_dropout"; "gamma" ], "ATTN");
    ( [ "gamma_dx1"; "gamma_dx2"; "attn_dropout_dx"; "softmax_dx"; "qkt_dx1";
        "qkt_dx2" ],
      "ATTN_dx" );
    ([ "output_bias"; "attn_out_dropout"; "residual1"; "ln1" ], "DRLN");
    ([ "bias1"; "relu"; "ff_dropout" ], "BRD");
    ([ "bias1"; "gelu"; "ff_dropout" ], "BGD");
    ([ "bias2_dw"; "ff_dropout_dx"; "gelu_dx"; "bias1_dw" ], "BDGB");
    ([ "bias2"; "out_dropout"; "residual2"; "ln2" ], "BDRLN");
    ([ "ln2_dw" ], "BSB");
    ([ "ln2_dx"; "out_dropout_dx" ], "BLNRD");
    ([ "bias2_dw"; "ff_dropout_dx"; "relu_dx"; "bias1_dw" ], "BDRB");
    ([ "residual2_dx"; "ln1_dw" ], "EBSB");
    ([ "ln1_dx"; "attn_out_dropout_dx" ], "BLNRD'");
    ([ "output_bias_dw" ], "BAOB");
    ([ "attn_dropout_dx"; "softmax_dx" ], "BS");
    ([ "bias_q_dw"; "bias_k_dw"; "bias_v_dw" ], "BAIB");
    ([ "residual1_dx" ], "BEI");
  ]

let param_names = [ "wq"; "wk"; "wv"; "bq"; "bk"; "bv"; "wo"; "bo" ]

let forward_names =
  [
    "qkv"; "qkv_qk"; "qkv_q"; "qkv_k"; "qkv_v"; "bias_q"; "bias_k"; "bias_v";
    "qkt"; "softmax"; "attn_dropout"; "gamma"; "out"; "output_bias";
  ]

let backward_names =
  [
    "output_bias_dw"; "out_dx"; "out_dw"; "gamma_dx1"; "gamma_dx2";
    "attn_dropout_dx"; "softmax_dx"; "qkt_dx1"; "qkt_dx2"; "bias_q_dw";
    "bias_k_dw"; "bias_v_dw"; "qkv_dx"; "qkv_dx_qk"; "qkv_dx_q"; "qkv_dx_k";
    "qkv_dx_v"; "qkv_dx_acc"; "qkv_dx_acc1"; "qkv_dx_acc2"; "qkv_dw";
    "qkv_dw_qk"; "qkv_dw_q"; "qkv_dw_k"; "qkv_dw_v";
  ]

let keep names (op : Ops.Op.t) = List.mem op.name names

let forward_program ?variant hp =
  Ops.Program.make ~containers:(Encoder.containers hp)
    (List.filter (keep forward_names) (Encoder.forward_ops ?variant hp))

let program ?variant hp =
  let fwd = List.filter (keep forward_names) (Encoder.forward_ops ?variant hp) in
  let bwd =
    List.filter (keep backward_names) (Encoder.backward_ops ?variant hp)
  in
  (* In the standalone block the cotangent arrives directly as d_attn_b. *)
  Ops.Program.make ~containers:(Encoder.containers hp) (fwd @ bwd)

let run hp ~x ~d_out ~params =
  let p = program hp in
  Ops.Program.run p (("x", x) :: ("d_attn_b", d_out) :: params)

let kernel_names =
  List.filter
    (fun (members, _) ->
      List.for_all (fun m -> List.mem m (forward_names @ backward_names)) members)
    Encoder.kernel_names

(* --- KV cache: incremental decoding (serving path) ------------------- *)

(* Per-session, per-layer store of the biased K/V projections of every
   token decoded so far. Step t recomputes only the new token's
   projections — O(L) bytes moved per token instead of the O(L^2) a full
   recompute re-streams (the serving-side face of the paper's
   data-movement argument). Rows are (p*heads + h); columns are token
   positions, capacity-doubling and zero-padded so freshly exposed tail
   columns are exact 0.0 contributions. *)
type cache = {
  ph : int;  (* proj *)
  hh : int;  (* heads *)
  mutable cap : int;
  mutable len : int;
  mutable ck : float array;  (* (ph*hh) rows x cap columns, row-major *)
  mutable cv : float array;
}

let cache_create (hp : Hparams.t) =
  let ph = hp.proj and hh = hp.heads in
  let cap = 16 in
  {
    ph;
    hh;
    cap;
    len = 0;
    ck = Array.make (ph * hh * cap) 0.0;
    cv = Array.make (ph * hh * cap) 0.0;
  }

let cache_len c = c.len

let grow c =
  let cap' = 2 * c.cap in
  let regrow old =
    let nu = Array.make (c.ph * c.hh * cap') 0.0 in
    for r = 0 to (c.ph * c.hh) - 1 do
      Array.blit old (r * c.cap) nu (r * cap') c.len
    done;
    nu
  in
  c.ck <- regrow c.ck;
  c.cv <- regrow c.cv;
  c.cap <- cap'

(* [cache_append c ~k ~v ~b] pushes slot b's column of a step's biased K/V
   projections (dims (p,h,b,k=1) / (w,h,b,k=1)) onto the cache. *)
let cache_append c ~k ~v ~b =
  if c.len = c.cap then grow c;
  let kd = Dense.unsafe_data k and vd = Dense.unsafe_data v in
  let ks = Dense.strides_for k [ "p"; "h"; "b" ]
  and vs = Dense.strides_for v [ "w"; "h"; "b" ] in
  for pi = 0 to c.ph - 1 do
    for hi = 0 to c.hh - 1 do
      let r = (pi * c.hh) + hi in
      c.ck.((r * c.cap) + c.len) <-
        kd.((pi * ks.(0)) + (hi * ks.(1)) + (b * ks.(2)));
      c.cv.((r * c.cap) + c.len) <-
        vd.((pi * vs.(0)) + (hi * vs.(1)) + (b * vs.(2)))
    done
  done;
  c.len <- c.len + 1

(* Dims (p|w, h, b, k). Every layer's caches hold the same lengths, so
   one pair serves every layer of a step. *)
type pads = { kpad : Dense.t; vpad : Dense.t }

let pads (hp : Hparams.t) ~keys =
  let dims a =
    [ (a, hp.proj); ("h", hp.heads); ("b", hp.batch); ("k", keys) ]
  in
  { kpad = Dense.zeros (dims "p"); vpad = Dense.zeros (dims "w") }

(* The one part of a decode step that is not a compiled plan: its key
   axis is the sessions' ragged cached prefixes. Bitwise parity with the
   oracle rests on: padded tail columns being exact zeros (their products
   contribute +0.0 at the tail of the ascending-k reduction), and the -inf
   pad mask entering the softmax at the same point as the oracle's
   additive causal mask. *)
let attend (hp : Hparams.t) ~pads ~caches ~q ~k ~v =
  let nb = Array.length caches in
  let shape = Dense.shape pads.kpad in
  let lmax = Shape.size shape "k" in
  if Shape.size shape "b" <> nb || Array.exists (fun c -> c.len >= lmax) caches
  then invalid_arg "Mha.attend: pads do not fit the batch";
  let ph = hp.proj and hh = hp.heads in
  (* Row (r, b) of [t]: the cached prefix, the new column, then zeros. *)
  let assemble t axis0 cache_of newcol =
    let data = Dense.unsafe_data t in
    let nd = Dense.unsafe_data newcol
    and ns = Dense.strides_for newcol [ axis0; "h"; "b" ] in
    for pi = 0 to ph - 1 do
      for hi = 0 to hh - 1 do
        let r = (pi * hh) + hi in
        for b = 0 to nb - 1 do
          let c = caches.(b) in
          let base = ((r * nb) + b) * lmax in
          Array.blit (cache_of c) (r * c.cap) data base c.len;
          data.(base + c.len) <-
            nd.((pi * ns.(0)) + (hi * ns.(1)) + (b * ns.(2)));
          Array.fill data (base + c.len + 1) (lmax - c.len - 1) 0.0
        done
      done
    done;
    t
  in
  let kkb_pad = assemble pads.kpad "p" (fun c -> c.ck) k in
  let vvb_pad = assemble pads.vpad "w" (fun c -> c.cv) v in
  (* The naive interior stays in-tree as the oracle: QK^T over the padded
     keys, a 0/-inf pad mask (column k of slot b is valid when k <= len_b:
     cached prefix plus the new token), masked softmax, V contraction. *)
  let naive_gam () =
    let beta = Einsum.eval "phbk,phbj->hbjk" [ kkb_pad; q ] in
    let mask =
      Dense.init [ ("b", nb); ("k", lmax) ] (fun idx ->
          if List.assoc "k" idx <= caches.(List.assoc "b" idx).len then 0.0
          else neg_infinity)
    in
    let alpha =
      Ops.Normalization.softmax_masked ~mask beta ~axis:"k"
        ~prescale:(Hparams.scaler hp)
    in
    Einsum.eval "whbk,hbjk->whbj" [ vvb_pad; alpha ]
  in
  (* Streaming kernel: the ragged [valid] limits reproduce the pad mask
     bitwise, so the decode step stays bitwise equal to the recompute
     oracle. *)
  if Fastmode.enabled () then
    Guard.protected ~kernel:"flashattn.attend"
      ~outputs:(fun g -> [ Dense.unsafe_data g ])
      ~fallback:naive_gam
      (fun () ->
        let valid = Array.map (fun c -> c.len + 1) caches in
        Flashattn.forward ~valid ~prescale:(Hparams.scaler hp) ~q ~k:kkb_pad
          ~v:vvb_pad ())
  else naive_gam ()

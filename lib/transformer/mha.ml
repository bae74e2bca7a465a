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
  for pi = 0 to c.ph - 1 do
    for hi = 0 to c.hh - 1 do
      let r = (pi * c.hh) + hi in
      c.ck.((r * c.cap) + c.len) <-
        Dense.get k [ ("p", pi); ("h", hi); ("b", b); ("k", 0) ];
      c.cv.((r * c.cap) + c.len) <-
        Dense.get v [ ("w", pi); ("h", hi); ("b", b); ("k", 0) ]
    done
  done;
  c.len <- c.len + 1

(* One incremental attention step for a ragged batch of sessions. [x] is
   the new-token hidden column, dims (i, b, j=1), slot b paired with
   caches.(b). Computes only the new token's Q/K/V projections, attends
   against cached keys/values padded to the longest session, and returns
   (attn_b, new K column, new V column). The caller commits the K/V
   columns with [cache_append] once the whole layer stack has succeeded,
   so an aborted step leaves every session untouched.

   Bitwise parity with the oracle rests on: padded tail columns being
   exact zeros (their products contribute +0.0 at the tail of the
   ascending-k reduction), and the -inf pad mask entering the softmax at
   the same point as the oracle's additive causal mask. *)
let attend (hp : Hparams.t) ~params ~caches x =
  let p n =
    match List.assoc_opt n params with
    | Some t -> t
    | None -> invalid_arg ("Mha.attend: missing parameter " ^ n)
  in
  let nb = Array.length caches in
  if nb = 0 then invalid_arg "Mha.attend: empty batch";
  let qq = Einsum.eval "phi,ibj->phbj" [ p "wq"; x ] in
  let xk = Dense.rename_axes x [ ("j", "k") ] in
  let kk = Einsum.eval "phi,ibk->phbk" [ p "wk"; xk ] in
  let vv = Einsum.eval "whi,ibk->whbk" [ p "wv"; xk ] in
  let qqb = Dense.add_bcast qq (p "bq") in
  let kkb = Dense.add_bcast kk (p "bk") in
  let vvb = Dense.add_bcast vv (p "bv") in
  let lmax = 1 + Array.fold_left (fun acc c -> max acc c.len) 0 caches in
  let ph = hp.proj and hh = hp.heads in
  let assemble axis0 cache_of newcol =
    let t = Dense.zeros [ (axis0, ph); ("h", hh); ("b", nb); ("k", lmax) ] in
    let data = Dense.unsafe_data t in
    for pi = 0 to ph - 1 do
      for hi = 0 to hh - 1 do
        let r = (pi * hh) + hi in
        for b = 0 to nb - 1 do
          let c = caches.(b) in
          let base = ((r * nb) + b) * lmax in
          Array.blit (cache_of c) (r * c.cap) data base c.len;
          data.(base + c.len) <-
            Dense.get newcol [ (axis0, pi); ("h", hi); ("b", b); ("k", 0) ]
        done
      done
    done;
    t
  in
  let kkb_pad = assemble "p" (fun c -> c.ck) kkb in
  let vvb_pad = assemble "w" (fun c -> c.cv) vvb in
  (* The naive interior stays in-tree as the oracle: QK^T over the padded
     keys, a 0/-inf pad mask (column k of slot b is valid when k <= len_b:
     cached prefix plus the new token), masked softmax, V contraction. *)
  let naive_gam () =
    let beta = Einsum.eval "phbk,phbj->hbjk" [ kkb_pad; qqb ] in
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
  let gam =
    if Fastmode.enabled () then
      Guard.protected ~kernel:"flashattn.attend"
        ~outputs:(fun g -> [ Dense.unsafe_data g ])
        ~fallback:naive_gam
        (fun () ->
          let valid = Array.map (fun c -> c.len + 1) caches in
          Flashattn.forward ~valid ~prescale:(Hparams.scaler hp) ~q:qqb
            ~k:kkb_pad ~v:vvb_pad ())
    else naive_gam ()
  in
  (* The out-projection reads [wo] through a non-direct row view ([i;w;h]
     over (w,h,i) storage), which the GEMM would otherwise re-pack into
     arena scratch on every decoded token — the dominant per-token cost of
     a decode GEMV. [wo] is registered prepacked at {!Params.init}, so
     einsum reuses the one packed image until the optimizer updates it. *)
  let attn = Einsum.eval "whi,whbj->ibj" [ p "wo"; gam ] in
  (Dense.add_bcast attn (p "bo"), kkb, vvb)

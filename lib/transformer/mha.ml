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
   data-movement argument). [k]/[v] are the tensors the attention kernel
   reads in place, dims (p|w, h, b=1, k=cap): row (p*heads + h), one
   column per token position, capacity doubling.

   Invariant: columns < [len] are committed; columns > [len] are exact
   zeros, because capacity grows into zeros and only column [len] is ever
   written; column [len] is written by the current step before anything
   reads it. So an aborted step changes no committed state, and the zero
   tails keep decode bitwise equal to the recompute oracle: their
   products add +0.0 at the end of the ascending-k sums, and their -inf
   mask enters the softmax where the oracle's causal mask does. *)
type cache = { mutable k : Dense.t; mutable v : Dense.t; mutable len : int }

let cache_dims (hp : Hparams.t) a ~cap =
  [ (a, hp.proj); ("h", hp.heads); ("b", 1); ("k", cap) ]

let cache_create hp =
  let cap = 16 in
  {
    k = Dense.zeros (cache_dims hp "p" ~cap);
    v = Dense.zeros (cache_dims hp "w" ~cap);
    len = 0;
  }

let cache_len c = c.len
let commit c = c.len <- c.len + 1
let capacity c = Shape.size (Dense.shape c.k) "k"

(* Doubles the capacity; only the committed columns move. *)
let grow hp c =
  let cap = capacity c in
  let regrow t a =
    let nu = Dense.zeros (cache_dims hp a ~cap:(2 * cap)) in
    let src = Dense.unsafe_data t and dst = Dense.unsafe_data nu in
    for r = 0 to (Array.length src / cap) - 1 do
      Array.blit src (r * cap) dst (r * 2 * cap) c.len
    done;
    nu
  in
  c.k <- regrow c.k "p";
  c.v <- regrow c.v "w"

(* [column hp t a ~b dst ~dst_off ~dst_step] copies slot b's column of a
   one-token tensor, dims (a, h, b, j|k = 1) in any storage order, into
   [dst.(dst_off + r * dst_step)], r the (a*heads + h) row. *)
let column (hp : Hparams.t) t a ~b dst ~dst_off ~dst_step =
  let d = Dense.unsafe_data t and s = Dense.strides_for t [ a; "h"; "b" ] in
  for ai = 0 to hp.proj - 1 do
    for hi = 0 to hp.heads - 1 do
      dst.(dst_off + (((ai * hp.heads) + hi) * dst_step)) <-
        d.((ai * s.(0)) + (hi * s.(1)) + (b * s.(2)))
    done
  done

(* One session's attention: its query column against the cache's first
   [len + 1] columns, read in place. The naive interior stays in-tree as
   the oracle: QK^T over every cached column, a 0/-inf mask (column k is
   valid when k <= len), masked softmax, V contraction. The streaming
   kernel's [valid] limit reproduces that mask bitwise. *)
let attend_one hp c q =
  let prescale = Hparams.scaler hp in
  let naive () =
    let beta = Einsum.eval "phbk,phbj->hbjk" [ c.k; q ] in
    let mask =
      Dense.init [ ("b", 1); ("k", capacity c) ] (fun idx ->
          if List.assoc "k" idx <= c.len then 0.0 else neg_infinity)
    in
    let alpha =
      Ops.Normalization.softmax_masked ~mask beta ~axis:"k" ~prescale
    in
    Einsum.eval "whbk,hbjk->whbj" [ c.v; alpha ]
  in
  Guard.protected ~kernel:"flashattn.attend"
    ~outputs:(fun g -> [ Dense.unsafe_data g ])
    ~fallback:naive
    (fun () ->
      Flashattn.forward ~valid:[| c.len + 1 |] ~prescale ~q ~k:c.k ~v:c.v ())

(* The one part of a decode step that is not a compiled plan: its key
   axis is each session's ragged cached prefix. *)
let attend (hp : Hparams.t) ~caches ~q ~k ~v =
  let nb = Array.length caches in
  let dims a ~nb = [ (a, hp.proj); ("h", hp.heads); ("b", nb); ("j", 1) ] in
  let gam = Dense.zeros (dims "w" ~nb) in
  Array.iteri
    (fun b c ->
      if c.len = capacity c then grow hp c;
      let cap = capacity c in
      column hp k "p" ~b (Dense.unsafe_data c.k) ~dst_off:c.len ~dst_step:cap;
      column hp v "w" ~b (Dense.unsafe_data c.v) ~dst_off:c.len ~dst_step:cap;
      let qb = Dense.zeros (dims "p" ~nb:1) in
      column hp q "p" ~b (Dense.unsafe_data qb) ~dst_off:0 ~dst_step:1;
      column hp (attend_one hp c qb) "w" ~b:0 (Dense.unsafe_data gam)
        ~dst_off:b ~dst_step:nb)
    caches;
  gam

(* Streaming-attention benchmark: the kernel-side face of the
   data-movement argument. The unfused attention interior materializes
   the L x L score matrix four times over (scores, softmax, dropout mask,
   dropped probabilities) and re-reads it between kernels; the streaming
   kernel ({!Flashattn}) packs the K/V panels of a Q-row tile's key
   prefix, walks the rows against them, and never stores the matrix.

   [run ~mode]:
   - [`Json]: fused vs unfused forward+backward wall-clock and effective
     bandwidth at L in {128, 512, 2048} (training-shaped: causal mask +
     dropout), the cached-decode step (L_q = 1 against a long prefix),
     and the Arena high-water mark showing the O(L * d_head) working set.
     Writes BENCH_pr8.json; asserts the >=3x fused speedup at L=2048 and
     the sub-quadratic peak scratch.
   - [`Smoke]: <1 s — fused fwd+bwd vs the naive chain at L=64 within
     1e-10 relative tolerance (exit 1 otherwise) — wired into
     `make attn-smoke` / `make check`. *)

open Cpu_bench
module N = Ops.Normalization
module E = Ops.Elementwise

let d_head = 64
let heads = 4
let batch = 1
let seed = 0xA77EL
let drop_p = 0.1
let prescale = 1.0 /. 8.0 (* 1/sqrt(d_head) *)

let rand_tensor prng dims =
  Dense.init dims (fun _ -> Prng.uniform prng ~lo:(-1.0) ~hi:1.0)

let make_case l =
  let prng = Prng.create (Int64.of_int (0x5EED + l)) in
  let q = rand_tensor prng [ ("p", d_head); ("h", heads); ("b", batch); ("j", l) ] in
  let k = rand_tensor prng [ ("p", d_head); ("h", heads); ("b", batch); ("k", l) ] in
  let v = rand_tensor prng [ ("w", d_head); ("h", heads); ("b", batch); ("k", l) ] in
  let d_out =
    rand_tensor prng [ ("w", d_head); ("h", heads); ("b", batch); ("j", l) ]
  in
  (q, k, v, d_out)

let drop_dims l = [ ("h", heads); ("b", batch); ("j", l); ("k", l) ]

let dropout_for l =
  if drop_p = 0.0 then None
  else
    Some { Flashattn.p = drop_p; seed; key = "attn_dropout"; dims = drop_dims l }

(* --- the unfused chain: exactly what the encoder graph runs ----------- *)

(* dx = prescale * y * (dy - sum_k(dy * y)): the softmax_dx operator as a
   value function. *)
let softmax_dx_value ~prescale ~dy ~y ~axis =
  let s = Dense.sum_over (Dense.mul dy y) [ axis ] in
  Dense.scale prescale (Dense.mul y (Dense.add_bcast dy (Dense.scale (-1.0) s)))

let naive_fwd ~causal ~l ~q ~k ~v =
  let beta = Einsum.eval "phbk,phbj->hbjk" [ k; q ] in
  let mask =
    if causal then Some (N.causal_mask ~q:"j" ~k:"k" [ ("j", l); ("k", l) ])
    else None
  in
  let alpha_sm = N.softmax_masked ?mask beta ~axis:"k" ~prescale in
  let alpha =
    if drop_p = 0.0 then alpha_sm
    else
      let m = E.dropout_mask ~seed ~name:"attn_dropout" (drop_dims l) ~p:drop_p in
      Dense.mul alpha_sm m
  in
  let gam = Einsum.eval "whbk,hbjk->whbj" [ v; alpha ] in
  (alpha_sm, alpha, gam)

let naive_bwd ~l ~q ~k ~v ~alpha_sm ~alpha ~d_out =
  let d_alpha = Einsum.eval "whbk,whbj->hbjk" [ v; d_out ] in
  let dv = Einsum.eval "hbjk,whbj->whbk" [ alpha; d_out ] in
  let d_alpha_sm =
    if drop_p = 0.0 then d_alpha
    else
      let m = E.dropout_mask ~seed ~name:"attn_dropout" (drop_dims l) ~p:drop_p in
      Dense.mul d_alpha m
  in
  let d_beta = softmax_dx_value ~prescale ~dy:d_alpha_sm ~y:alpha_sm ~axis:"k" in
  let dq = Einsum.eval "phbk,hbjk->phbj" [ k; d_beta ] in
  let dk = Einsum.eval "phbj,hbjk->phbk" [ q; d_beta ] in
  (dq, dk, dv)

(* --- comparison helpers ---------------------------------------------- *)

let max_rel_diff a b =
  let da = Dense.unsafe_data a and db = Dense.unsafe_data b in
  if Array.length da <> Array.length db then invalid_arg "max_rel_diff: shape";
  let worst = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = Float.abs (x -. db.(i)) /. Float.max 1.0 (Float.abs x) in
      if d > !worst then worst := d)
    da;
  !worst

(* Logical I/O of the attention interior: the four tensors the fused
   kernel actually touches (q, k, v, out forward; + d_out, dq, dk, dv
   backward), host FP64. The unfused chain moves these too — plus the
   L x L containers, reported separately. *)
let logical_bytes ~l =
  let tensor = d_head * heads * batch * l * 8 in
  (4 * tensor, 8 * tensor)

let score_container_bytes ~l = heads * batch * l * l * 8

(* --- one measured point ----------------------------------------------- *)

let bench_point ~causal ~reps l =
  let q, k, v, d_out = make_case l in
  let dropout = dropout_for l in
  let t_naive_fwd =
    best_of ~reps (fun () -> naive_fwd ~causal ~l ~q ~k ~v)
  in
  let alpha_sm, alpha, gam_naive = naive_fwd ~causal ~l ~q ~k ~v in
  let t_naive_bwd =
    best_of ~reps (fun () -> naive_bwd ~l ~q ~k ~v ~alpha_sm ~alpha ~d_out)
  in
  let t_fused_fwd =
    best_of ~reps (fun () ->
        Flashattn.forward ~causal ?dropout ~prescale ~q ~k ~v ())
  in
  Arena.reset_peak Arena.global;
  let out = Flashattn.forward ~causal ?dropout ~prescale ~q ~k ~v () in
  let t_fused_bwd =
    best_of ~reps (fun () ->
        Flashattn.backward ~causal ?dropout ~prescale ~q ~k ~v ~d_out ())
  in
  let peak_floats = (Arena.stats Arena.global).Arena.peak_floats in
  let drift = max_rel_diff gam_naive out in
  let t_naive = t_naive_fwd +. t_naive_bwd in
  let t_fused = t_fused_fwd +. t_fused_bwd in
  let fwd_bytes, tot_bytes = logical_bytes ~l in
  let gbps bytes t = float_of_int bytes /. t /. 1e9 in
  let json =
    Obj
      [
        ("seq_len", Int l);
        ("causal", Str (if causal then "true" else "false"));
        ("dropout_p", Num drop_p);
        ("naive_fwd_ms", Num (t_naive_fwd *. 1e3));
        ("naive_bwd_ms", Num (t_naive_bwd *. 1e3));
        ("fused_fwd_ms", Num (t_fused_fwd *. 1e3));
        ("fused_bwd_ms", Num (t_fused_bwd *. 1e3));
        ("speedup_fwd", Num (t_naive_fwd /. t_fused_fwd));
        ("speedup_fwd_bwd", Num (t_naive /. t_fused));
        ("fused_fwd_gbps", Num (gbps fwd_bytes t_fused_fwd));
        ("naive_fwd_gbps", Num (gbps fwd_bytes t_naive_fwd));
        ("fused_total_gbps", Num (gbps tot_bytes t_fused));
        ("naive_total_gbps", Num (gbps tot_bytes t_naive));
        ("score_container_mb", Num (float_of_int (score_container_bytes ~l) /. 1e6));
        ("arena_peak_floats", Int peak_floats);
        ("max_rel_diff", Num drift);
      ]
  in
  (json, t_naive /. t_fused, peak_floats, drift)

(* --- cached decode: one new token against a long prefix --------------- *)

let bench_decode ~reps l =
  let prng = Prng.create 0xCAFEL in
  let q = rand_tensor prng [ ("p", d_head); ("h", heads); ("b", batch); ("j", 1) ] in
  let k = rand_tensor prng [ ("p", d_head); ("h", heads); ("b", batch); ("k", l) ] in
  let v = rand_tensor prng [ ("w", d_head); ("h", heads); ("b", batch); ("k", l) ] in
  let valid = Array.make batch l in
  let naive () =
    let beta = Einsum.eval "phbk,phbj->hbjk" [ k; q ] in
    let alpha = N.softmax_masked beta ~axis:"k" ~prescale in
    Einsum.eval "whbk,hbjk->whbj" [ v; alpha ]
  in
  let fused () = Flashattn.forward ~valid ~prescale ~q ~k ~v () in
  let t_naive = best_of ~reps (fun () -> naive ()) in
  let t_fused = best_of ~reps (fun () -> fused ()) in
  let drift = max_rel_diff (naive ()) (fused ()) in
  ( Obj
      [
        ("prefix_len", Int l);
        ("q_len", Int 1);
        ("naive_us", Num (t_naive *. 1e6));
        ("fused_us", Num (t_fused *. 1e6));
        ("speedup", Num (t_naive /. t_fused));
        ("max_rel_diff", Num drift);
      ],
    drift )

(* --- smoke ------------------------------------------------------------ *)

let smoke () =
  let l = 64 in
  let q, k, v, d_out = make_case l in
  let dropout = dropout_for l in
  let alpha_sm, alpha, gam_naive = naive_fwd ~causal:true ~l ~q ~k ~v in
  let ndq, ndk, ndv = naive_bwd ~l ~q ~k ~v ~alpha_sm ~alpha ~d_out in
  let out = Flashattn.forward ~causal:true ?dropout ~prescale ~q ~k ~v () in
  let dq, dk, dv =
    Flashattn.backward ~causal:true ?dropout ~prescale ~q ~k ~v ~d_out ()
  in
  let checks =
    [
      ("out", max_rel_diff gam_naive out);
      ("dq", max_rel_diff ndq dq);
      ("dk", max_rel_diff ndk dk);
      ("dv", max_rel_diff ndv dv);
    ]
  in
  let tol = 1e-10 in
  let bad = List.filter (fun (_, d) -> not (d < tol)) checks in
  if bad = [] then
    Printf.printf
      "attn-smoke OK: streaming fwd+bwd within %.0e of the unfused chain at \
       L=%d (causal, dropout %.2f)\n"
      tol l drop_p
  else begin
    List.iter
      (fun (name, d) ->
        Printf.eprintf "attn-smoke FAILED: %s diverged from the unfused \
                        chain (max rel diff %.3e)\n" name d)
      bad;
    exit 1
  end

(* ---------------------------------------------------------------------- *)

let run mode =
  Einsum.clear_caches ();
  match mode with
  | `Smoke -> smoke ()
  | `Json ->
      let points =
        List.map
          (fun (l, reps) -> bench_point ~causal:true ~reps l)
          [ (128, 3); (512, 2); (2048, 1) ]
      in
      let decode, decode_drift = bench_decode ~reps:3 2048 in
      let doc =
        Obj
          [
            ("bench", Str "streaming-attention");
            ("pr", Int 8);
            ("d_head", Int d_head);
            ("heads", Int heads);
            ("batch", Int batch);
            ("domains", Int (Pool.num_domains ()));
            ("points", Arr (List.map (fun (j, _, _, _) -> j) points));
            ("cached_decode", decode);
          ]
      in
      let text = to_string doc in
      print_endline text;
      let oc = open_out "BENCH_pr8.json" in
      output_string oc text;
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote BENCH_pr8.json\n";
      let ok = ref true in
      List.iter
        (fun (j, speedup, peak, drift) ->
          let l =
            match j with
            | Obj fields -> (
                match List.assoc "seq_len" fields with Int l -> l | _ -> 0)
            | _ -> 0
          in
          if not (drift < 1e-10) then begin
            Printf.eprintf
              "attn bench FAILED: fused forward drifted %.3e from the chain \
               at L=%d\n"
              drift l;
            ok := false
          end;
          (* The working-set claim: peak scratch is the K/V panels plus
             row buffers — O(L * d_head), not the O(L^2) score matrix
             the chain materializes per head. *)
          if peak >= 12 * l * d_head then begin
            Printf.eprintf
              "attn bench FAILED: arena peak %d floats at L=%d exceeds the \
               O(L * d_head) working-set bound\n"
              peak l;
            ok := false
          end;
          if l = 2048 && speedup < 3.0 then begin
            Printf.eprintf
              "attn bench FAILED: fused fwd+bwd only %.2fx over the unfused \
               chain at L=%d (want >=3x)\n"
              speedup l;
            ok := false
          end;
          if l = 2048 && speedup >= 3.0 then
            Printf.printf
              "attn bench OK: fused fwd+bwd %.2fx over the unfused chain at \
               L=%d\n"
              speedup l)
        points;
      if not (decode_drift < 1e-10) then begin
        Printf.eprintf "attn bench FAILED: cached-decode step drifted %.3e\n"
          decode_drift;
        ok := false
      end;
      if not !ok then exit 1

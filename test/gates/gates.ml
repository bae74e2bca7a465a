(* Wall-clock gates: the timing ratios that `dune runtest` must never
   depend on. Each gate keeps the hyperparameters, repetitions and bound
   it was introduced with; every correctness property behind them
   (bitwise decode, streaming attention == the unfused chain, planned ==
   unplanned, the attention working set) is a tier-1 test.

   Run with: dune exec test/gates/gates.exe   (or: make gates)

   Prints one OK/FAILED line per gate and exits 1 if any gate failed. *)

module H = Transformer.Hparams
module M = Transformer.Model
module N = Ops.Normalization
module E = Ops.Elementwise

let now = Unix.gettimeofday

(* Best-of-[reps] wall clock, after one untimed warmup that also fills the
   einsum plan caches. *)
let best_of ~reps f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = now () in
    ignore (f ());
    best := Float.min !best (now () -. t0)
  done;
  !best

let failed = ref 0

let verdict name ok detail =
  Printf.printf "%-6s %s: %s\n%!" (if ok then "OK" else "FAILED") name detail;
  if not ok then incr failed

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* ------------------------------------------------------------------ *)
(* Encoder layer fwd+bwd: fast vs naive, serial vs two domains          *)
(* ------------------------------------------------------------------ *)

let smoke_hp =
  {
    H.tiny with
    H.batch = 2;
    seq = 16;
    embed = 32;
    heads = 4;
    proj = 8;
    ff = 64;
    dropout_p = 0.1;
  }

(* The fused encoder, run op for op (no planning) on fixed inputs. *)
let encoder_run hp =
  let prng = Prng.create 42L in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  let inputs = ("x", x) :: ("d_y", d_y) :: params in
  let fused =
    Substation.Fusion.fuse ~name_table:Transformer.Encoder.kernel_names
      (Transformer.Encoder.program hp)
  in
  fun ~fast () ->
    Fastmode.with_mode fast (fun () -> Ops.Program.run fused inputs)

let gate_fast_vs_naive run ~label =
  let reps = 2 in
  let fast_s = best_of ~reps (run ~fast:true) in
  let naive_s = best_of ~reps (run ~fast:false) in
  let speedup = naive_s /. fast_s in
  verdict
    (Printf.sprintf "fast encoder >= 1.0x naive (%s)" label)
    (speedup >= 1.0)
    (Printf.sprintf "%.2fx (fast %.1f ms, naive %.1f ms)" speedup
       (fast_s *. 1e3) (naive_s *. 1e3))

(* On >= 2 cores the pooled run must be at near-parity or better with
   serial (0.95, room for timer noise); on one core the domains
   timeshare a CPU, so only pathological overhead (< 0.4) fails. *)
let gate_parallel_floor run =
  let reps = 2 in
  let serial_s = Pool.with_domains 1 (fun () -> best_of ~reps (run ~fast:true)) in
  let par_d = Int.max 2 (Pool.num_domains ()) in
  let par_s = Pool.with_domains par_d (fun () -> best_of ~reps (run ~fast:true)) in
  let ratio = serial_s /. par_s in
  let cores = Domain.recommended_domain_count () in
  let floor = if cores >= 2 then 0.95 else 0.4 in
  verdict
    (Printf.sprintf "%d-domain encoder >= %.2fx serial" par_d floor)
    (ratio >= floor)
    (Printf.sprintf "%.2fx (%d core%s)" ratio cores
       (if cores = 1 then "" else "s"))

(* ------------------------------------------------------------------ *)
(* KV-cached decode                                                     *)
(* ------------------------------------------------------------------ *)

(* Big enough that einsum work, not dispatch, dominates; small enough that
   64 full-prefix recomputes stay in seconds. *)
let decode_model () =
  M.create ~n_layers:2 ~vocab:32
    {
      H.tiny with
      H.batch = 1;
      seq = 1;
      embed = 128;
      heads = 8;
      proj = 16;
      ff = 512;
      dropout_p = 0.0;
      seed = 0xBEEFL;
    }

(* Greedy decode from a 1-token prompt, re-running the causal forward over
   the whole prefix per step. *)
let recompute_decode m ~steps =
  let prefix = Array.make (steps + 1) 1 in
  Array.init steps (fun step ->
      let col = M.decode_oracle m ~prompt:(Array.sub prefix 0 (step + 1)) in
      prefix.(step + 1) <- M.argmax col;
      col)

(* The same generation through one KV-cache session. *)
let cached_decode m ~steps =
  let sess = M.new_session m in
  let tok = ref 1 in
  Array.init steps (fun _ ->
      let col =
        M.logits_column (M.decode_batch m [| sess |] ~tokens:[| !tok |]) ~b:0
      in
      tok := M.argmax col;
      col)

let gate_kv_cache m =
  let steps = 64 and reps = 2 in
  let oracle = ref [||] and cached = ref [||] in
  let t_recompute =
    best_of ~reps (fun () -> oracle := recompute_decode m ~steps)
  in
  let t_cached = best_of ~reps (fun () -> cached := cached_decode m ~steps) in
  let bitwise = Array.for_all2 bits_equal !oracle !cached in
  let speedup = t_recompute /. t_cached in
  verdict
    (Printf.sprintf "cached decode >= 5x recompute at L=%d, bitwise" steps)
    (bitwise && speedup >= 5.0)
    (Printf.sprintf "%.2fx, bitwise %b" speedup bitwise)

(* ------------------------------------------------------------------ *)
(* Streaming attention vs the unfused chain                             *)
(* ------------------------------------------------------------------ *)

let d_head = 64
let heads = 4
let drop_p = 0.1
let drop_seed = 0xA77EL
let prescale = 1.0 /. 8.0 (* 1/sqrt(d_head) *)

(* The chain the streaming kernel replaces, as the encoder graph runs it:
   QK^T -> causal softmax -> dropout -> V, and its backward. *)
let unfused_fwd_bwd ~l ~q ~k ~v ~d_out =
  let drop_dims = [ ("h", heads); ("b", 1); ("j", l); ("k", l) ] in
  let mask () = E.dropout_mask ~seed:drop_seed ~name:"attn_dropout" drop_dims ~p:drop_p in
  let beta = Einsum.eval "phbk,phbj->hbjk" [ k; q ] in
  let causal = N.causal_mask ~q:"j" ~k:"k" [ ("j", l); ("k", l) ] in
  let alpha_sm = N.softmax_masked ~mask:causal beta ~axis:"k" ~prescale in
  let alpha = Dense.mul alpha_sm (mask ()) in
  let gam = Einsum.eval "whbk,hbjk->whbj" [ v; alpha ] in
  let d_alpha = Dense.mul (Einsum.eval "whbk,whbj->hbjk" [ v; d_out ]) (mask ()) in
  let dv = Einsum.eval "hbjk,whbj->whbk" [ alpha; d_out ] in
  let s = Dense.sum_over (Dense.mul d_alpha alpha_sm) [ "k" ] in
  let d_beta =
    Dense.scale prescale
      (Dense.mul alpha_sm (Dense.add_bcast d_alpha (Dense.scale (-1.0) s)))
  in
  let dq = Einsum.eval "phbk,hbjk->phbj" [ k; d_beta ] in
  let dk = Einsum.eval "phbj,hbjk->phbk" [ q; d_beta ] in
  (gam, dq, dk, dv)

let gate_attention () =
  let l = 2048 and reps = 1 in
  let prng = Prng.create (Int64.of_int (0x5EED + l)) in
  let rand dims = Dense.init dims (fun _ -> Prng.uniform prng ~lo:(-1.0) ~hi:1.0) in
  let q = rand [ ("p", d_head); ("h", heads); ("b", 1); ("j", l) ] in
  let k = rand [ ("p", d_head); ("h", heads); ("b", 1); ("k", l) ] in
  let v = rand [ ("w", d_head); ("h", heads); ("b", 1); ("k", l) ] in
  let d_out = rand [ ("w", d_head); ("h", heads); ("b", 1); ("j", l) ] in
  let dropout =
    {
      Flashattn.p = drop_p;
      seed = drop_seed;
      key = "attn_dropout";
      dims = [ ("h", heads); ("b", 1); ("j", l); ("k", l) ];
    }
  in
  let gam = ref q and out = ref q in
  let t_unfused =
    best_of ~reps (fun () ->
        let g, _, _, _ = unfused_fwd_bwd ~l ~q ~k ~v ~d_out in
        gam := g)
  in
  let t_fused =
    best_of ~reps (fun () ->
        out := Flashattn.forward ~causal:true ~dropout ~prescale ~q ~k ~v ();
        Flashattn.backward ~causal:true ~dropout ~prescale ~q ~k ~v ~d_out ())
  in
  let bitwise =
    bits_equal (Dense.unsafe_data (Dense.align !out !gam)) (Dense.unsafe_data !gam)
  in
  let speedup = t_unfused /. t_fused in
  verdict
    (Printf.sprintf "streaming attention fwd+bwd >= 3x unfused at L=%d" l)
    (bitwise && speedup >= 3.0)
    (Printf.sprintf "%.2fx (fused %.2f s, unfused %.2f s), forward bitwise %b"
       speedup t_fused t_unfused bitwise)

let () =
  let run = encoder_run smoke_hp in
  Pool.with_domains 1 (fun () -> gate_fast_vs_naive run ~label:"1 domain");
  gate_fast_vs_naive run
    ~label:(Printf.sprintf "%d domains" (Pool.num_domains ()));
  gate_parallel_floor run;
  let m = decode_model () in
  gate_kv_cache m;
  gate_attention ();
  if !failed > 0 then begin
    Printf.printf "%d gate(s) failed\n" !failed;
    exit 1
  end

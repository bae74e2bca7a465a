(* Memory-planner benchmark: the allocator-side face of the data-movement
   argument. The functional interpreter materializes a fresh tensor per
   op and retains every intermediate; the static planner ({!Ops.Memplan})
   drops each container after its last use, and one-time weight
   prepacking stops the decode GEMV from re-packing its out-projection on
   every token.

   [run ~mode]:
   - [`Json]: encoder-layer fwd+bwd wall-clock planned vs unplanned (fast
     mode), the planned vs naive resident set, and KV-cached decode
     tokens/s with prepacking on vs off. Writes BENCH_pr9.json; asserts
     the >=25% resident-set reduction and that prepacked decode does not
     lose throughput (exit 1 otherwise).
   - [`Smoke]: <1 s — planned vs unplanned bitwise on the tiny encoder
     (fast and naive), the resident-set reduction, and an 8-token decode
     with prepacking on vs off, bitwise (exit 1 on divergence) — wired
     into `make plan-smoke` / `make check`. *)

open Cpu_bench
module M = Transformer.Model

let bits_equal_dense a b =
  let a = Dense.align a b in
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    (Dense.unsafe_data a) (Dense.unsafe_data b)

let fused_program hp =
  Substation.Fusion.fuse ~name_table:Transformer.Encoder.kernel_names
    (Transformer.Encoder.program hp)

let encoder_inputs hp seed =
  let prng = Prng.create seed in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  ("x", x) :: ("d_y", d_y) :: params

(* Planned env drops dead intermediates; every container it kept must be
   bitwise-equal to the oracle's. Returns the number compared. *)
let planned_parity ~fast program inputs =
  let env_ref =
    Fastmode.with_mode fast (fun () -> Ops.Program.run program inputs)
  in
  let mp = Ops.Memplan.plan program in
  let env_pl =
    Fastmode.with_mode fast (fun () -> Ops.Memplan.execute mp inputs)
  in
  let compared = ref 0 and ok = ref true in
  Hashtbl.iter
    (fun c t_pl ->
      match Hashtbl.find_opt env_ref c with
      | None -> ok := false
      | Some t_ref ->
          incr compared;
          if not (bits_equal_dense t_ref t_pl) then begin
            Printf.eprintf "memplan bench: container %s diverges (fast=%b)\n"
              c fast;
            ok := false
          end)
    env_pl;
  (!ok && !compared > 0, Ops.Memplan.stats mp)

(* --- KV-cached decode, prepack on vs off --------------------------- *)

let decode_cols m ~steps =
  let sess = M.new_session m in
  let tok = ref 1 in
  Array.init steps (fun _ ->
      let logits = M.decode_batch m [| sess |] ~tokens:[| !tok |] in
      let col = M.logits_column logits ~b:0 in
      tok := M.argmax col;
      col)

let decode_bench ~steps ~reps =
  let m =
    M.create ~n_layers:Serve_bench.decode_layers ~vocab:Serve_bench.decode_vocab
      Serve_bench.decode_hp
  in
  let with_prepack enabled f =
    Einsum.set_prepack_enabled enabled;
    Fun.protect ~finally:(fun () -> Einsum.set_prepack_enabled true) f
  in
  let cols_on = ref [||] and cols_off = ref [||] in
  let t_on =
    Fastmode.with_mode true (fun () ->
        best_of ~reps (fun () -> cols_on := decode_cols m ~steps))
  in
  let hits = (Einsum.prepack_stats ()).Einsum.pp_hits in
  let t_off =
    with_prepack false (fun () ->
        Fastmode.with_mode true (fun () ->
            best_of ~reps (fun () -> cols_off := decode_cols m ~steps)))
  in
  let bitwise =
    Array.for_all2
      (fun a b ->
        Array.for_all2
          (fun x y ->
            Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
          a b)
      !cols_on !cols_off
  in
  (t_on, t_off, bitwise, hits)

(* ---------------------------------------------------------------------- *)

let smoke () =
  let t0 = now () in
  let hp = Transformer.Hparams.tiny in
  let program = fused_program hp in
  let inputs = encoder_inputs hp 0x9121L in
  let ok_fast, stats = planned_parity ~fast:true program inputs in
  let ok_naive, _ = planned_parity ~fast:false program inputs in
  let reduction =
    1.0
    -. (float_of_int stats.Ops.Memplan.plan_peak_floats
       /. float_of_int stats.Ops.Memplan.naive_peak_floats)
  in
  let t_decode, _, decode_bitwise, hits = decode_bench ~steps:8 ~reps:1 in
  ignore t_decode;
  Printf.printf
    "plan smoke: parity fast=%b naive=%b | resident %d -> %d floats \
     (-%.0f%%) | decode bitwise=%b (prepack hits %d) | %.2f s\n"
    ok_fast ok_naive stats.Ops.Memplan.naive_peak_floats
    stats.Ops.Memplan.plan_peak_floats (100.0 *. reduction) decode_bitwise hits
    (now () -. t0);
  if not (ok_fast && ok_naive) then begin
    Printf.eprintf "plan smoke FAILED: planned execution diverged\n";
    exit 1
  end;
  if reduction < 0.25 then begin
    Printf.eprintf
      "plan smoke FAILED: resident-set reduction %.1f%% below 25%%\n"
      (100.0 *. reduction);
    exit 1
  end;
  if not decode_bitwise then begin
    Printf.eprintf "plan smoke FAILED: prepacked decode diverged\n";
    exit 1
  end

let json () =
  let hp = bench_hp in
  let program = fused_program hp in
  let inputs = encoder_inputs hp 0x9122L in
  (* parity first: a fast benchmark of a wrong answer is worthless *)
  let parity_ok, stats = planned_parity ~fast:true program inputs in
  let plan = plan_of "memplan" program in
  let reps = 5 in
  let t_unplanned =
    best_of ~reps (fun () ->
        Frameworks.Executor.run ~check:No_check
          (Compile.Regime.passthrough ~fast:true ())
          plan inputs)
  in
  (* the program is already fused and attention windowing is off, so the
     pair differs only in memory planning *)
  let t_planned =
    best_of ~reps (fun () ->
        Fastmode.with_mode true (fun () ->
            Frameworks.Executor.run ~check:No_check
              (Compile.Regime.current ~attention:false ())
              plan inputs))
  in
  let steps = 48 in
  let t_on, t_off, decode_bitwise, hits = decode_bench ~steps ~reps:3 in
  let pp = Einsum.prepack_stats () in
  let reduction =
    1.0
    -. (float_of_int stats.Ops.Memplan.plan_peak_floats
       /. float_of_int stats.Ops.Memplan.naive_peak_floats)
  in
  let tps t = float_of_int steps /. t in
  let doc =
    Obj
      [
        ("bench", Str "memory-planner");
        ("pr", Int 9);
        ("domains", Int (Pool.num_domains ()));
        ( "encoder",
          Obj
            [
              ("batch", Int hp.Transformer.Hparams.batch);
              ("seq", Int hp.Transformer.Hparams.seq);
              ("embed", Int hp.Transformer.Hparams.embed);
              ("unplanned_ms", Num (t_unplanned *. 1e3));
              ("planned_ms", Num (t_planned *. 1e3));
              ("speedup", Num (t_unplanned /. t_planned));
              ("naive_peak_floats", Int stats.Ops.Memplan.naive_peak_floats);
              ("plan_peak_floats", Int stats.Ops.Memplan.plan_peak_floats);
              ("reduction_pct", Num (100.0 *. reduction));
              ("bitwise_equal", Str (if parity_ok then "true" else "false"));
            ] );
        ( "decode",
          Obj
            [
              ("steps", Int steps);
              ("embed", Int Serve_bench.decode_hp.Transformer.Hparams.embed);
              ("layers", Int Serve_bench.decode_layers);
              ("prepack_tokens_per_sec", Num (tps t_on));
              ("no_prepack_tokens_per_sec", Num (tps t_off));
              ("speedup", Num (t_off /. t_on));
              ("prepack_hits", Int hits);
              ("prepack_images", Int pp.Einsum.pp_images);
              ("prepack_floats", Int pp.Einsum.pp_floats);
              ( "bitwise_equal",
                Str (if decode_bitwise then "true" else "false") );
            ] );
      ]
  in
  let text = to_string doc in
  print_endline text;
  let oc = open_out "BENCH_pr9.json" in
  output_string oc text;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_pr9.json\n";
  let ok = ref true in
  if not parity_ok then begin
    Printf.eprintf "memplan bench FAILED: planned encoder diverged\n";
    ok := false
  end;
  if reduction < 0.25 then begin
    Printf.eprintf
      "memplan bench FAILED: resident-set reduction %.1f%% below the 25%% \
       acceptance bar\n"
      (100.0 *. reduction);
    ok := false
  end;
  if not decode_bitwise then begin
    Printf.eprintf "memplan bench FAILED: prepacked decode diverged\n";
    ok := false
  end;
  if t_off /. t_on < 1.0 then begin
    Printf.eprintf
      "memplan bench FAILED: prepacked decode slower than per-call packing \
       (%.2fx)\n"
      (t_off /. t_on);
    ok := false
  end;
  if not !ok then exit 1

let run mode =
  Einsum.clear_caches ();
  Einsum.clear_prepacked ();
  match mode with `Smoke -> smoke () | `Json -> json ()

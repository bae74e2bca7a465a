(* Compiler-pipeline benchmark: what the staged lowering costs and what it
   buys. Times the cold compile (every pass), the cached compile (must be
   a hit re-running zero passes), the [~verify:true] proof, and the
   execute-side payoff of the compiled plan (fusion + attention windowing
   + memory plan + prepack) against the uncompiled
   interpreter on the same program.

   [run ~mode]:
   - [`Json]: the L=64 encoder layer (fwd+bwd). Writes BENCH_pr10.json
     with per-pass stats from the plan trace, compile/verify timings,
     cache counters, and the compiled-vs-uncompiled execute comparison;
     asserts the cache hit re-runs zero passes and that verification
     passed (exit 1 otherwise).
   - [`Smoke]: <1 s — a verified compile on L=64 (every pass checked
     against the uncompiled interpreter, bitwise) plus the
     cache-hit/zero-re-runs assertion — wired into `make compile-smoke` /
     `make check`. *)

open Cpu_bench

let encoder_inputs hp seed =
  let prng = Prng.create seed in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  ("x", x) :: ("d_y", d_y) :: params

let compile_encoder ?verify ?verify_inputs ?use_cache hp =
  Compile.Compiled.compile ?verify ?verify_inputs ?use_cache
    ~name_table:Transformer.Encoder.kernel_names
    ~params:Transformer.Encoder.param_names
    (Compile.Regime.current ())
    (Transformer.Encoder.program hp)

(* ---------------------------------------------------------------------- *)

(* L=64 as the acceptance bar names; batch/width shrunk to keep the
   8 verification executions (reference + one per pass) under a second *)
let smoke_hp =
  {
    bench_hp with
    Transformer.Hparams.batch = 1;
    embed = 64;
    heads = 4;
    proj = 16;
    ff = 256;
  }

let smoke () =
  let t0 = now () in
  let inputs = encoder_inputs smoke_hp 0xA101L in
  let plan = compile_encoder ~verify:true ~verify_inputs:inputs smoke_hp in
  (* cold then cached: the second structurally identical compile must be
     the same plan with zero passes re-run *)
  Compile.Compiled.clear_cache ();
  let plan1 = compile_encoder smoke_hp in
  let runs = Compile.Compiled.pass_runs () in
  let plan2 = compile_encoder smoke_hp in
  let hit = plan1 == plan2 && Compile.Compiled.pass_runs () = runs in
  Printf.printf
    "compile smoke: L=%d verified=%b (%d passes, %d -> %d ops) | cache \
     hit=%b (0 passes re-run) | %.2f s\n"
    smoke_hp.Transformer.Hparams.seq plan.Compile.Compiled.verified
    (List.length plan.Compile.Compiled.trace)
    (List.length plan.Compile.Compiled.source.Ops.Program.ops)
    (List.length plan.Compile.Compiled.program.Ops.Program.ops)
    hit
    (now () -. t0);
  if not plan.Compile.Compiled.verified then begin
    Printf.eprintf "compile smoke FAILED: verification did not run\n";
    exit 1
  end;
  if not hit then begin
    Printf.eprintf "compile smoke FAILED: second compile was not a cache hit\n";
    exit 1
  end

let json () =
  let hp = bench_hp in
  let inputs = encoder_inputs hp 0xA102L in
  let program = Transformer.Encoder.program hp in
  (* the proof first: a fast benchmark of a wrong lowering is worthless *)
  let t0 = now () in
  let vplan = compile_encoder ~verify:true ~verify_inputs:inputs hp in
  let t_verify = now () -. t0 in
  (* cold compile (cache cleared) vs cached recompile *)
  Compile.Compiled.clear_cache ();
  let t0 = now () in
  let plan = compile_encoder hp in
  let t_cold = now () -. t0 in
  let runs = Compile.Compiled.pass_runs () in
  let t0 = now () in
  let plan2 = compile_encoder hp in
  let t_cached = now () -. t0 in
  let cache_hit = plan == plan2 && Compile.Compiled.pass_runs () = runs in
  (* execute: compiled plan vs the uncompiled interpreter, fast mode *)
  let reps = 5 in
  let t_uncompiled =
    best_of ~reps (fun () ->
        Fastmode.with_mode true (fun () -> Ops.Program.run program inputs))
  in
  let t_compiled =
    best_of ~reps (fun () -> Compile.Compiled.execute plan inputs)
  in
  let stats = Compile.Compiled.cache_stats () in
  let pass_row (s : Compile.Pass.stat) =
    Obj
      [
        ("pass", Str s.Compile.Pass.st_pass);
        ("ops_before", Int s.Compile.Pass.st_ops_before);
        ("ops_after", Int s.Compile.Pass.st_ops_after);
        ("peak_floats", Int s.Compile.Pass.st_peak_floats);
        ("elapsed_ms", Num (s.Compile.Pass.st_elapsed *. 1e3));
        ("note", Str s.Compile.Pass.st_note);
      ]
  in
  let doc =
    Obj
      [
        ("bench", Str "compiler-pipeline");
        ("pr", Int 10);
        ("domains", Int (Pool.num_domains ()));
        ( "program",
          Obj
            [
              ("batch", Int hp.Transformer.Hparams.batch);
              ("seq", Int hp.Transformer.Hparams.seq);
              ("embed", Int hp.Transformer.Hparams.embed);
              ( "ops_source",
                Int (List.length plan.Compile.Compiled.source.Ops.Program.ops)
              );
              ( "ops_compiled",
                Int (List.length plan.Compile.Compiled.program.Ops.Program.ops)
              );
            ] );
        ( "compile",
          Obj
            [
              ("cold_ms", Num (t_cold *. 1e3));
              ("cached_ms", Num (t_cached *. 1e3));
              ("verify_ms", Num (t_verify *. 1e3));
              ("cache_hit", Str (if cache_hit then "true" else "false"));
              ("cache_hits", Int stats.Compile.Compiled.hits);
              ("cache_misses", Int stats.Compile.Compiled.misses);
              ( "verified",
                Str (if vplan.Compile.Compiled.verified then "true" else "false")
              );
            ] );
        ( "execute",
          Obj
            [
              ("uncompiled_ms", Num (t_uncompiled *. 1e3));
              ("compiled_ms", Num (t_compiled *. 1e3));
              ("speedup", Num (t_uncompiled /. t_compiled));
              ("prepacked", Int (List.length plan.Compile.Compiled.prepack));
              ( "attn_sites",
                Int (List.length plan.Compile.Compiled.attn_sites) );
            ] );
        ("passes", Arr (List.map pass_row plan.Compile.Compiled.trace));
      ]
  in
  let text = to_string doc in
  print_endline text;
  let oc = open_out "BENCH_pr10.json" in
  output_string oc text;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_pr10.json\n";
  let ok = ref true in
  if not vplan.Compile.Compiled.verified then begin
    Printf.eprintf "compile bench FAILED: verification did not run\n";
    ok := false
  end;
  if not cache_hit then begin
    Printf.eprintf
      "compile bench FAILED: recompile was not a zero-pass cache hit\n";
    ok := false
  end;
  if not !ok then exit 1

let run mode =
  Einsum.clear_caches ();
  Einsum.clear_prepacked ();
  Compile.Compiled.clear_cache ();
  match mode with `Smoke -> smoke () | `Json -> json ()

(* Machine-readable CPU-backend benchmark: wall-clock of the fast numeric
   backend (blocked-GEMM einsum, fused executor kernels, plan caching)
   against the naive odometer oracle, on real transformer-layer programs
   and on the four MHA einsum contractions.

   [run ~mode] implements three CLI entry points:
   - [`Json]: full benchmark on GEMM-dominant hparams, writes
     BENCH_pr3.json (schema below) and prints it;
   - [`Smoke]: quick pass on small hparams, prints the JSON and *asserts*
     the fast path is at least as fast as naive, then that the parallel
     (multi-domain) run is not meaningfully slower than serial (exit 1
     otherwise) — wired into `make bench-smoke` / `make check`;
   - [`Scaling]: serial-vs-parallel wall clock of the fast backend at 1, 2
     and N domains (speedup + parallel efficiency per row), writes
     BENCH_pr4.json — wired into `make bench-scaling`. *)

let now = Unix.gettimeofday

(* Best-of-[reps] wall clock, after one untimed warmup that also populates
   the einsum plan caches. *)
let best_of ~reps f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = now () in
    ignore (f ());
    let dt = now () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* ------------------------------------------------------------------ *)
(* JSON writer (no external dependency)                                *)
(* ------------------------------------------------------------------ *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Int of int

let rec emit buf = function
  | Str s ->
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num v ->
      if Float.is_finite v then Buffer.add_string buf (Printf.sprintf "%.6g" v)
      else Buffer.add_string buf "null"
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          emit buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          emit buf (Str k);
          Buffer.add_string buf ": ";
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 4096 in
  emit buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Workload benches: transformer-layer programs, fast vs naive          *)
(* ------------------------------------------------------------------ *)

let plan_of name program =
  {
    Frameworks.Executor.name;
    program;
    kernels_forward = [];
    kernels_backward = [];
    dispatch_overhead = 0.0;
  }

(* Per-pass wall clock: run the program op by op, charging each operator
   to the forward or backward bucket. *)
let pass_times ~fast plan inputs =
  Fastmode.with_mode fast (fun () ->
      let env = Ops.Op.env_of_list inputs in
      let fwd = ref 0.0 and bwd = ref 0.0 in
      List.iter
        (fun (op : Ops.Op.t) ->
          let t0 = now () in
          op.Ops.Op.run env;
          let dt = now () -. t0 in
          if op.Ops.Op.backward then bwd := !bwd +. dt else fwd := !fwd +. dt)
        plan.Frameworks.Executor.program.Ops.Program.ops;
      (!fwd, !bwd))

(* Shared workload setup: materialized inputs + fused executor plan, so the
   fast/naive and serial/parallel benches time the same work. *)
let workload_plan ~name ~name_table ~program hp =
  let prng = Prng.create 42L in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  let inputs = ("x", x) :: ("d_y", d_y) :: params in
  let fused = Substation.Fusion.fuse ~name_table program in
  (plan_of name fused, inputs)

let bench_workload ~reps ~name ~name_table ~program hp =
  let plan, inputs = workload_plan ~name ~name_table ~program hp in
  let run fast () =
    Frameworks.Executor.run ~check:No_check
      (Compile.Regime.passthrough ~fast ())
      plan inputs
  in
  let total_fast = best_of ~reps (run true) in
  let total_naive = best_of ~reps (run false) in
  ignore (pass_times ~fast:true plan inputs);
  let fwd_fast, bwd_fast = pass_times ~fast:true plan inputs in
  let fwd_naive, bwd_naive = pass_times ~fast:false plan inputs in
  ( Obj
      [
        ("name", Str name);
        ( "forward",
          Obj
            [
              ("fast_s", Num fwd_fast);
              ("naive_s", Num fwd_naive);
              ("speedup", Num (fwd_naive /. fwd_fast));
            ] );
        ( "backward",
          Obj
            [
              ("fast_s", Num bwd_fast);
              ("naive_s", Num bwd_naive);
              ("speedup", Num (bwd_naive /. bwd_fast));
            ] );
        ( "run_functional",
          Obj
            [
              ("fast_s", Num total_fast);
              ("naive_s", Num total_naive);
              ("speedup", Num (total_naive /. total_fast));
            ] );
      ],
    total_naive /. total_fast )

(* ------------------------------------------------------------------ *)
(* Einsum benches: the four MHA contraction shapes                      *)
(* ------------------------------------------------------------------ *)

let mha_contractions =
  (* spec, operand axis lists (storage order) *)
  [
    ("phi,ibj->phbj", [ [ "p"; "h"; "i" ]; [ "i"; "b"; "j" ] ]);
    ("phbk,phbj->hbjk", [ [ "p"; "h"; "b"; "k" ]; [ "p"; "h"; "b"; "j" ] ]);
    ("whbk,hbjk->whbj", [ [ "w"; "h"; "b"; "k" ]; [ "h"; "b"; "j"; "k" ] ]);
    ("whi,whbj->ibj", [ [ "w"; "h"; "i" ]; [ "w"; "h"; "b"; "j" ] ]);
  ]

let bench_einsum ~reps hp =
  let sizes = Transformer.Hparams.dims hp in
  let size a = List.assoc a sizes in
  let prng = Prng.create 7L in
  List.map
    (fun (spec_s, operand_axes) ->
      let spec = Einsum.parse spec_s in
      let inputs =
        List.map
          (fun axes ->
            Dense.rand prng
              (List.map (fun a -> (a, size a)) axes)
              ~lo:(-1.0) ~hi:1.0)
          operand_axes
      in
      let flop = Einsum.flops spec ~size in
      let run fast () =
        Einsum.contract ~fast inputs ~out:spec.Einsum.result
      in
      let fast_s = best_of ~reps (run true) in
      let naive_s = best_of ~reps (run false) in
      Obj
        [
          ("spec", Str spec_s);
          ("gflop", Num (float_of_int flop /. 1e9));
          ("fast_s", Num fast_s);
          ("naive_s", Num naive_s);
          ("fast_gflops", Num (float_of_int flop /. fast_s /. 1e9));
          ("naive_gflops", Num (float_of_int flop /. naive_s /. 1e9));
          ("speedup", Num (naive_s /. fast_s));
        ])
    mha_contractions

(* ------------------------------------------------------------------ *)
(* Multicore scaling benches: fast backend serial vs parallel           *)
(* ------------------------------------------------------------------ *)

(* Domain counts to sweep: 1 (serial), 2, and N = the pool's resolved
   default (SUBSTATION_DOMAINS, else the machine's recommended count).
   Deduplicated and sorted, so a single-core box still reports [1; 2] —
   honest timesharing numbers rather than a silently skipped column. *)
let scaling_domain_counts () =
  List.sort_uniq compare
    [ 1; 2; Stdlib.max 1 (Pool.num_domains ()) ]

(* Wall-clock of [run] at each domain count; rows carry speedup vs the
   1-domain run and parallel efficiency (speedup / domains). *)
let scaling_rows ~reps counts run =
  let times =
    List.map
      (fun d -> (d, Pool.with_domains d (fun () -> best_of ~reps run)))
      counts
  in
  let serial_s = List.assoc 1 times in
  List.map
    (fun (d, s) ->
      Obj
        [
          ("domains", Int d);
          ("wall_s", Num s);
          ("speedup_vs_serial", Num (serial_s /. s));
          ("efficiency", Num (serial_s /. s /. float_of_int d));
        ])
    times

let bench_scaling_workload ~reps counts ~name ~name_table ~program hp =
  let plan, inputs = workload_plan ~name ~name_table ~program hp in
  let run () =
    Frameworks.Executor.run ~check:No_check
      (Compile.Regime.passthrough ~fast:true ())
      plan inputs
  in
  Obj [ ("name", Str name); ("scaling", Arr (scaling_rows ~reps counts run)) ]

let bench_scaling_einsum ~reps counts hp =
  let sizes = Transformer.Hparams.dims hp in
  let size a = List.assoc a sizes in
  let prng = Prng.create 7L in
  List.map
    (fun (spec_s, operand_axes) ->
      let spec = Einsum.parse spec_s in
      let inputs =
        List.map
          (fun axes ->
            Dense.rand prng
              (List.map (fun a -> (a, size a)) axes)
              ~lo:(-1.0) ~hi:1.0)
          operand_axes
      in
      let run () =
        ignore (Einsum.contract ~fast:true inputs ~out:spec.Einsum.result)
      in
      Obj
        [
          ("spec", Str spec_s);
          ("scaling", Arr (scaling_rows ~reps counts run));
        ])
    mha_contractions

(* ------------------------------------------------------------------ *)

let hp_json (hp : Transformer.Hparams.t) =
  Obj
    [
      ("batch", Int hp.batch);
      ("seq", Int hp.seq);
      ("embed", Int hp.embed);
      ("heads", Int hp.heads);
      ("proj", Int hp.proj);
      ("ff", Int hp.ff);
    ]

(* GEMM-dominant but CPU-tractable layer dimensions. *)
let bench_hp =
  {
    Transformer.Hparams.tiny with
    batch = 2;
    seq = 64;
    embed = 128;
    heads = 8;
    proj = 16;
    ff = 512;
    dropout_p = 0.1;
  }

let smoke_hp =
  {
    Transformer.Hparams.tiny with
    batch = 2;
    seq = 16;
    embed = 32;
    heads = 4;
    proj = 8;
    ff = 64;
    dropout_p = 0.1;
  }

(* Smoke-check the parallel backend on the encoder workload: the pooled
   run must not be meaningfully slower than serial. On a machine with
   >= 2 cores we require near-parity or better (0.95, leaving room for
   timer noise); on a single core the "parallel" domains timeshare one
   CPU, so only pathological overhead (ratio < 0.4) fails. Bitwise
   equality of parallel vs serial results is covered by test_pool. *)
let smoke_parallel hp ~reps =
  let plan, inputs =
    workload_plan ~name:"encoder_layer"
      ~name_table:Transformer.Encoder.kernel_names
      ~program:(Transformer.Encoder.program hp)
      hp
  in
  let run () =
    Frameworks.Executor.run ~check:No_check
      (Compile.Regime.passthrough ~fast:true ())
      plan inputs
  in
  let serial_s = Pool.with_domains 1 (fun () -> best_of ~reps run) in
  let par_d = Stdlib.max 2 (Pool.num_domains ()) in
  let par_s = Pool.with_domains par_d (fun () -> best_of ~reps run) in
  let ratio = serial_s /. par_s in
  let cores = Domain.recommended_domain_count () in
  let floor = if cores >= 2 then 0.95 else 0.4 in
  if ratio < floor then begin
    Printf.eprintf
      "bench-smoke FAILED: parallel encoder run (%d domains) is slower than \
       serial beyond tolerance (ratio %.2fx < %.2fx, %d core%s)\n"
      par_d ratio floor cores
      (if cores = 1 then "" else "s");
    exit 1
  end
  else
    Printf.printf
      "bench-smoke OK: parallel encoder run (%d domains) at %.2fx of serial \
       (floor %.2fx, %d core%s)\n"
      par_d ratio floor cores
      (if cores = 1 then "" else "s")

let run mode =
  let hp, reps, out_file =
    match mode with
    | `Json -> (bench_hp, 3, Some "BENCH_pr3.json")
    | `Smoke -> (smoke_hp, 2, None)
    | `Scaling -> (bench_hp, 3, Some "BENCH_pr4.json")
  in
  Einsum.clear_caches ();
  match mode with
  | `Scaling ->
      let counts = scaling_domain_counts () in
      let workloads =
        [
          bench_scaling_workload ~reps counts ~name:"encoder_layer"
            ~name_table:Transformer.Encoder.kernel_names
            ~program:(Transformer.Encoder.program hp)
            hp;
          bench_scaling_workload ~reps counts ~name:"decoder_layer"
            ~name_table:Transformer.Decoder.kernel_names
            ~program:(Transformer.Decoder.program hp)
            hp;
        ]
      in
      let einsum = bench_scaling_einsum ~reps counts hp in
      let doc =
        Obj
          [
            ("bench", Str "cpu_multicore_scaling");
            ("pr", Int 4);
            ("cores", Int (Domain.recommended_domain_count ()));
            ("default_domains", Int (Pool.num_domains ()));
            ("domain_counts", Arr (List.map (fun d -> Int d) counts));
            ("hparams", hp_json hp);
            ("reps", Int reps);
            ("workloads", Arr workloads);
            ("einsum_mha", Arr einsum);
          ]
      in
      let text = to_string doc in
      print_endline text;
      (match out_file with
      | Some path ->
          let oc = open_out path in
          output_string oc text;
          output_char oc '\n';
          close_out oc;
          Printf.printf "wrote %s\n" path
      | None -> ())
  | (`Json | `Smoke) as mode ->
  let encoder, enc_speedup =
    bench_workload ~reps ~name:"encoder_layer"
      ~name_table:Transformer.Encoder.kernel_names
      ~program:(Transformer.Encoder.program hp)
      hp
  in
  let decoder, _ =
    bench_workload ~reps ~name:"decoder_layer"
      ~name_table:Transformer.Decoder.kernel_names
      ~program:(Transformer.Decoder.program hp)
      hp
  in
  let einsum = bench_einsum ~reps hp in
  let doc =
    Obj
      [
        ("bench", Str "cpu_numeric_backend");
        ("pr", Int 3);
        ("mode", Str (match mode with `Json -> "json" | `Smoke -> "smoke"));
        ("hparams", hp_json hp);
        ("reps", Int reps);
        ("workloads", Arr [ encoder; decoder ]);
        ("einsum_mha", Arr einsum);
      ]
  in
  let text = to_string doc in
  print_endline text;
  (match out_file with
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path
  | None -> ());
  match mode with
  | `Smoke ->
      if enc_speedup < 1.0 then begin
        Printf.eprintf
          "bench-smoke FAILED: fast encoder Executor.run is slower than \
           naive (speedup %.2fx < 1.0x)\n"
          enc_speedup;
        exit 1
      end
      else begin
        Printf.printf "bench-smoke OK: encoder speedup %.2fx >= 1.0x\n"
          enc_speedup;
        smoke_parallel hp ~reps
      end
  | `Json -> ()

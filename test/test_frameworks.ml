(* Tests for the simulated frameworks: numerical agreement of every plan's
   functional program, and the performance orderings of Tables IV and V. *)

let check_bool = Alcotest.(check bool)
let device = Gpu.Device.v100
let hp = Transformer.Hparams.bert_large
let tiny = Transformer.Hparams.tiny
let enc = Frameworks.Executor.Encoder_layer
let mha = Frameworks.Executor.Mha_block

(* expensive reports, shared *)
let pt = lazy (Frameworks.Pytorch_sim.report ~device ~workload:enc hp)
let xla = lazy (Frameworks.Xla_sim.report ~device ~workload:enc hp)
let ds = lazy (Frameworks.Deepspeed_sim.report ~device ~workload:enc hp)
let ours = lazy (Frameworks.Ours.report ~device ~workload:enc hp)
let pt_mha = lazy (Frameworks.Pytorch_sim.report ~device ~workload:mha hp)
let xla_mha = lazy (Frameworks.Xla_sim.report ~device ~workload:mha hp)
let cudnn_mha = lazy (Frameworks.Cudnn_sim.report ~device hp)
let ours_mha = lazy (Frameworks.Ours.report ~device ~workload:mha hp)

let total r = Frameworks.Executor.total_time (Lazy.force r)

(* ---------------- numerical agreement ---------------- *)

let test_all_plans_numerically_agree () =
  let prng = Prng.create 123L in
  let params = Transformer.Params.init tiny in
  let x = Transformer.Params.random_input tiny prng in
  let d_y = Transformer.Params.random_cotangent tiny prng in
  let inputs = ("x", x) :: ("d_y", d_y) :: params in
  let plans =
    [
      Frameworks.Pytorch_sim.plan ~device ~workload:enc tiny;
      Frameworks.Xla_sim.plan ~device ~workload:enc tiny;
      Frameworks.Deepspeed_sim.plan ~device ~workload:enc tiny;
      Frameworks.Ours.plan ~device ~workload:enc tiny;
    ]
  in
  let envs =
    List.map
      (fun p ->
        fst
          (Frameworks.Executor.run (Compile.Regime.current ()) p inputs))
      plans
  in
  let base = List.hd envs in
  List.iteri
    (fun i env ->
      List.iter
        (fun c ->
          check_bool
            (Printf.sprintf "plan %d container %s agrees" i c)
            true
            (Dense.approx_equal (Ops.Op.lookup base c) (Ops.Op.lookup env c)))
        [ "y"; "d_x"; "d_w1"; "d_bq" ])
    envs

let test_mha_plans_numerically_agree () =
  let prng = Prng.create 321L in
  let params = Transformer.Params.init tiny in
  let x = Transformer.Params.random_input tiny prng in
  let d_out = Transformer.Params.random_cotangent tiny prng in
  let inputs = ("x", x) :: ("d_attn_b", d_out) :: params in
  let plans =
    [
      Frameworks.Pytorch_sim.plan ~device ~workload:mha tiny;
      Frameworks.Cudnn_sim.plan ~device tiny;
      Frameworks.Ours.plan ~device ~workload:mha tiny;
    ]
  in
  let envs =
    List.map
      (fun p ->
        fst
          (Frameworks.Executor.run (Compile.Regime.current ()) p inputs))
      plans
  in
  let base = List.hd envs in
  List.iter
    (fun env ->
      check_bool "attn output agrees" true
        (Dense.approx_equal (Ops.Op.lookup base "attn_b") (Ops.Op.lookup env "attn_b")))
    envs

(* ---------------- Table V orderings ---------------- *)

let test_encoder_ordering () =
  check_bool "ours < DeepSpeed" true (total ours < total ds);
  check_bool "DeepSpeed < TF+XLA" true (total ds < total xla);
  check_bool "TF+XLA < PyTorch" true (total xla < total pt)

let test_encoder_speedup_bands () =
  let s_pt = total pt /. total ours in
  let s_ds = total ds /. total ours in
  let s_xla = total xla /. total ours in
  check_bool
    (Printf.sprintf "PyTorch speedup %.2fx in [1.25, 1.7] (paper 1.30x)" s_pt)
    true
    (s_pt >= 1.25 && s_pt <= 1.7);
  check_bool
    (Printf.sprintf "DeepSpeed speedup %.2fx in [1.02, 1.20] (paper 1.08x)" s_ds)
    true
    (s_ds >= 1.02 && s_ds <= 1.20);
  check_bool
    (Printf.sprintf "TF+XLA speedup %.2fx in [1.10, 1.45] (paper 1.20x)" s_xla)
    true
    (s_xla >= 1.10 && s_xla <= 1.45)

let test_encoder_absolute_band () =
  (* paper: ours 2.63 + 4.38 = 7.01 ms; the model should land in the same
     regime (within ~25%) *)
  let t = total ours *. 1e3 in
  check_bool (Printf.sprintf "ours total %.2f ms in [5.2, 8.8]" t) true
    (t >= 5.2 && t <= 8.8);
  let t_pt = total pt *. 1e3 in
  check_bool (Printf.sprintf "PyTorch total %.2f ms in [7, 12]" t_pt) true
    (t_pt >= 7.0 && t_pt <= 12.0)

(* ---------------- Table IV orderings ---------------- *)

let test_mha_ordering () =
  check_bool "ours fastest" true
    (total ours_mha < total xla_mha && total ours_mha < total pt_mha);
  check_bool "TF+XLA < PyTorch on MHA" true (total xla_mha < total pt_mha);
  check_bool "cuDNN catastrophically slow (paper: 131/652 ms)" true
    (total cudnn_mha > 50.0 *. total pt_mha)

let test_cudnn_magnitude () =
  let r = Lazy.force cudnn_mha in
  let fwd_ms = r.Frameworks.Executor.forward_time *. 1e3 in
  let bwd_ms = r.Frameworks.Executor.backward_time *. 1e3 in
  check_bool (Printf.sprintf "cuDNN fwd %.0f ms in [80, 200]" fwd_ms) true
    (fwd_ms >= 80.0 && fwd_ms <= 200.0);
  check_bool (Printf.sprintf "cuDNN bwd %.0f ms in [400, 900]" bwd_ms) true
    (bwd_ms >= 400.0 && bwd_ms <= 900.0)

(* ---------------- structure ---------------- *)

let test_plan_kernel_counts () =
  let pt_plan = Frameworks.Pytorch_sim.plan ~device ~workload:enc tiny in
  let program = pt_plan.Frameworks.Executor.program in
  check_bool "PyTorch launches one kernel per operator" true
    (List.length pt_plan.Frameworks.Executor.kernels_forward
    = List.length (Ops.Program.forward_ops program));
  let ours_plan = Frameworks.Ours.plan ~device ~workload:enc tiny in
  check_bool "ours launches fewer kernels than PyTorch" true
    (List.length ours_plan.Frameworks.Executor.kernels_forward
     + List.length ours_plan.Frameworks.Executor.kernels_backward
    < List.length pt_plan.Frameworks.Executor.kernels_forward
      + List.length pt_plan.Frameworks.Executor.kernels_backward)

let test_xla_no_algebraic_fusion () =
  let plan = Frameworks.Xla_sim.plan ~device ~workload:enc tiny in
  let names =
    List.map (fun (k : Gpu.Kernel.t) -> k.Gpu.Kernel.name)
      plan.Frameworks.Executor.kernels_forward
  in
  check_bool "XLA keeps separate Q/K/V projections" true
    (List.mem "qkv_q" names && List.mem "qkv_v" names);
  check_bool "XLA does fuse elementwise (has SM)" true (List.mem "SM" names)

let test_dispatch_overhead_counts () =
  let r = Lazy.force pt in
  let raw =
    r.Frameworks.Executor.forward.Gpu.Simulator.total_time
  in
  check_bool "dispatch overhead included" true
    (r.Frameworks.Executor.forward_time > raw)

let test_a100_is_faster () =
  let v = Frameworks.Deepspeed_sim.report ~device ~workload:enc hp in
  let a = Frameworks.Deepspeed_sim.report ~device:Gpu.Device.a100 ~workload:enc hp in
  check_bool "A100 beats V100" true
    (Frameworks.Executor.total_time a < Frameworks.Executor.total_time v)

let () =
  Alcotest.run "frameworks"
    [
      ( "numerics",
        [
          Alcotest.test_case "all encoder plans agree" `Quick
            test_all_plans_numerically_agree;
          Alcotest.test_case "all MHA plans agree" `Quick
            test_mha_plans_numerically_agree;
        ] );
      ( "encoder (Table V)",
        [
          Alcotest.test_case "ordering" `Slow test_encoder_ordering;
          Alcotest.test_case "speedup bands" `Slow test_encoder_speedup_bands;
          Alcotest.test_case "absolute times" `Slow test_encoder_absolute_band;
        ] );
      ( "mha (Table IV)",
        [
          Alcotest.test_case "ordering" `Slow test_mha_ordering;
          Alcotest.test_case "cuDNN magnitude" `Slow test_cudnn_magnitude;
        ] );
      ( "structure",
        [
          Alcotest.test_case "kernel counts" `Quick test_plan_kernel_counts;
          Alcotest.test_case "XLA skips algebraic fusion" `Quick
            test_xla_no_algebraic_fusion;
          Alcotest.test_case "dispatch overhead" `Slow test_dispatch_overhead_counts;
          Alcotest.test_case "A100 device model" `Slow test_a100_is_faster;
        ] );
    ]

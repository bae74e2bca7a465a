(* Tests for the multicore worker pool and its users: exact index coverage
   under adversarial chunk counts, deterministic ascending-order reduction
   merges, exception propagation, nested-region serialization, and — the
   core contract — bitwise identity of the parallel GEMM / einsum / fused
   kernels and of parallel autotuning sweeps with their serial runs. *)

let q = QCheck_alcotest.to_alcotest
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let shuffle_list prng xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Prng.int prng ~bound:(i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

(* ---------------- parallel_for semantics ---------------- *)

(* Record the chunks a parallel_for hands out and assert they partition
   [start, finish) exactly: sorted by lo, no gaps, no overlaps. *)
let record_chunks ?chunks ~start ~finish () =
  let m = Mutex.create () in
  let seen = ref [] in
  Pool.parallel_for ?chunks ~start ~finish (fun lo hi ->
      Mutex.lock m;
      seen := (lo, hi) :: !seen;
      Mutex.unlock m);
  List.sort compare !seen

let assert_partition ~start ~finish ranges =
  let cursor = ref start in
  List.iter
    (fun (lo, hi) ->
      check_int "chunk starts where the previous ended" !cursor lo;
      check_bool "chunk is non-empty" true (hi > lo);
      cursor := hi)
    ranges;
  check_int "chunks cover the whole range" finish !cursor

let test_coverage () =
  Pool.with_domains 4 (fun () ->
      List.iter
        (fun (start, finish) ->
          List.iter
            (fun chunks ->
              let ranges = record_chunks ~chunks ~start ~finish () in
              assert_partition ~start ~finish ranges)
            [ 1; 2; 3; 7; 16; 64; 1000 ];
          (* Default chunk count too. *)
          assert_partition ~start ~finish (record_chunks ~start ~finish ()))
        [ (0, 1); (0, 17); (5, 23); (0, 1000) ];
      (* Empty ranges dispatch nothing. *)
      check_bool "empty range runs no chunks" true
        (record_chunks ~chunks:7 ~start:3 ~finish:3 () = []))

let test_reduce_order () =
  Pool.with_domains 4 (fun () ->
      (* Order-sensitive combine: concatenation exposes any merge-order
         nondeterminism. The result must be the ascending chunk ranges. *)
      let s =
        Pool.parallel_for_reduce ~chunks:7 ~start:0 ~finish:23 ~init:""
          ~combine:( ^ ) (fun lo hi -> Printf.sprintf "[%d,%d)" lo hi)
      in
      let expected =
        List.fold_left
          (fun acc (lo, hi) -> acc ^ Printf.sprintf "[%d,%d)" lo hi)
          ""
          (Pool.with_domains 4 (fun () ->
               record_chunks ~chunks:7 ~start:0 ~finish:23 ()))
      in
      check_string "reduction merges in ascending chunk order" expected s;
      (* Exact integer sum agrees with the serial closed form. *)
      let sum =
        Pool.parallel_for_reduce ~chunks:16 ~start:0 ~finish:1000 ~init:0
          ~combine:( + ) (fun lo hi ->
            let s = ref 0 in
            for i = lo to hi - 1 do
              s := !s + i
            done;
            !s)
      in
      check_int "range sum" (999 * 1000 / 2) sum)

exception Boom

let test_exception_propagation () =
  Pool.with_domains 4 (fun () ->
      let raised =
        try
          Pool.parallel_for ~chunks:8 ~start:0 ~finish:64 (fun lo hi ->
              if lo <= 13 && 13 < hi then raise Boom);
          false
        with Boom -> true
      in
      check_bool "chunk exception re-raised on the caller" true raised;
      (* The pool survives a failed job. *)
      assert_partition ~start:0 ~finish:17
        (record_chunks ~chunks:4 ~start:0 ~finish:17 ()))

let test_nested_regions_serialize () =
  Pool.with_domains 4 (fun () ->
      let outer_in_worker = ref false and inner_total = Atomic.make 0 in
      Pool.parallel_for ~chunks:4 ~start:0 ~finish:8 (fun lo hi ->
          if Pool.running_in_worker () then outer_in_worker := true;
          (* A nested region must run inline, still covering its range. *)
          Pool.parallel_for ~chunks:4 ~start:0 ~finish:(hi - lo) (fun l h ->
              ignore (Atomic.fetch_and_add inner_total (h - l))));
      check_bool "chunk bodies observe running_in_worker" true
        !outer_in_worker;
      check_int "nested regions cover their ranges inline" 8
        (Atomic.get inner_total));
  check_bool "outside any region, not in a worker" false
    (Pool.running_in_worker ())

(* ---------------- bitwise identity: GEMM ---------------- *)

let gemm_at_domains d ~m ~n ~k a b =
  let c = Array.make (m * n) 0.0 in
  Pool.with_domains d (fun () -> Gemm.gemm ~m ~n ~k a b c);
  c

let prop_gemm_parallel_bitwise =
  QCheck.Test.make
    ~name:"parallel gemm bitwise-equal to serial over random shapes"
    ~count:30
    QCheck.(triple (int_range 2 40) (int_range 1 40) (int_range 1 40))
    (fun (m, n, k) ->
      (* Deepen k past the sharding threshold (m*n*k >= 2^18) so every
         shape actually runs on row shards. *)
      let k = k + (((1 lsl 18) + (m * n) - 1) / (m * n)) in
      let prng = Prng.create (Int64.of_int ((m * 1763) + (n * 43) + k)) in
      let a =
        Dense.unsafe_data
          (Dense.rand prng [ ("m", m); ("k", k) ] ~lo:(-1.0) ~hi:1.0)
      in
      let b =
        Dense.unsafe_data
          (Dense.rand prng [ ("k", k); ("n", n) ] ~lo:(-1.0) ~hi:1.0)
      in
      let serial = gemm_at_domains 1 ~m ~n ~k a b in
      let par = gemm_at_domains 4 ~m ~n ~k a b in
      let par3 = gemm_at_domains 3 ~m ~n ~k a b in
      Array.for_all2 Float.equal serial par
      && Array.for_all2 Float.equal serial par3)

let test_gemm_offsets_parallel_bitwise () =
  (* Offsets into larger buffers: the row sharding must respect them
     (m*n*k past the 2^18 sharding threshold). *)
  let m = 24 and n = 40 and k = 274 in
  let a_off = 5 and b_off = 3 and c_off = 7 in
  let prng = Prng.create 99L in
  let arr len =
    Dense.unsafe_data (Dense.rand prng [ ("x", len) ] ~lo:(-1.0) ~hi:1.0)
  in
  let a = arr ((m * k) + a_off) and b = arr ((k * n) + b_off) in
  let run d =
    let c = Array.make ((m * n) + c_off) 1.5 in
    Pool.with_domains d (fun () ->
        Gemm.gemm ~a_off ~b_off ~c_off ~m ~n ~k a b c);
    c
  in
  check_bool "offset gemm bitwise across domain counts" true
    (Array.for_all2 Float.equal (run 1) (run 4))

(* Row shards that start on odd rows: m = 7 splits [0,3) [3,5) [5,7) over
   3 domains and m = 9 splits [0,5) [5,9) over 2, so a worker's 4-row
   tiles group different rows than the serial sweep does, and its leftover
   rows sit mid-matrix. Panel-crossing k, n mod 4 <> 0, offsets and a
   non-zero C; every domain count must equal the triple loop bitwise. Each
   m*n*k is past the 2^18 sharding threshold. *)
let test_gemm_odd_row_shards () =
  let prng = Prng.create 101L in
  let arr len =
    Dense.unsafe_data (Dense.rand prng [ ("x", len) ] ~lo:(-1.0) ~hi:1.0)
  in
  List.iter
    (fun (m, n, k) ->
      let a_off = 3 and b_off = 1 and c_off = 2 in
      let a = arr ((m * k) + a_off) and b = arr ((k * n) + b_off) in
      let c0 = arr ((m * n) + c_off) in
      let r = Array.copy c0 in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let t = c_off + (i * n) + j in
          for l = 0 to k - 1 do
            r.(t) <- r.(t) +. (a.(a_off + (i * k) + l) *. b.(b_off + (l * n) + j))
          done
        done
      done;
      List.iter
        (fun d ->
          let c = Array.copy c0 in
          Pool.with_domains d (fun () ->
              Gemm.gemm ~a_off ~b_off ~c_off ~m ~n ~k a b c);
          check_bool
            (Printf.sprintf "m=%d n=%d k=%d at %d domain(s) = triple loop" m n
               k d)
            true
            (Array.for_all2 Float.equal c r))
        [ 1; 2; 3 ])
    [
      (7, 37, 1013); (9, 38, 767); (7, 39, 961); (9, 40, 729);
      (* Narrow columns (n mod 4 <> 0, the 8-row tiles) over shards that
         start off an 8-row boundary: m = 27 splits [0,14) [14,27) over 2
         domains and [0,9) [9,18) [18,27) over 3, m = 19 [0,10) [10,19)
         and [0,7) [7,13) [13,19). *)
      (27, 1, 9710); (27, 3, 3237); (19, 5, 2760);
    ]

(* ---------------- bitwise identity: einsum ---------------- *)

let test_einsum_parallel_bitwise () =
  (* Batched matmul big enough to engage the batch-group sharding
     (4 * 24^3 >> threshold), with permuted operand storage. *)
  let b = 4 and m = 24 and n = 24 and k = 24 in
  let prng = Prng.create 31L in
  let a_t =
    Dense.rand prng [ ("b", b); ("m", m); ("k", k) ] ~lo:(-1.0) ~hi:1.0
  in
  let b_t =
    Dense.rand prng [ ("b", b); ("k", k); ("n", n) ] ~lo:(-1.0) ~hi:1.0
  in
  let a_t = Dense.permute a_t (shuffle_list prng (Dense.axes a_t)) in
  let b_t = Dense.permute b_t (shuffle_list prng (Dense.axes b_t)) in
  let run d =
    Pool.with_domains d (fun () ->
        Einsum.contract ~fast:true [ a_t; b_t ] ~out:[ "b"; "m"; "n" ])
  in
  let serial = run 1 in
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "parallel einsum at %d domains bitwise" d)
        true
        (Dense.max_abs_diff serial (run d) = 0.0))
    [ 2; 3; 4 ]

let test_einsum_mha_parallel_bitwise () =
  (* An MHA-shaped contraction (the paper's QK^T) at sizes where several
     batch dims fold into the sharded group. *)
  let sizes = [ ("p", 16); ("h", 4); ("b", 2); ("j", 16); ("k", 16) ] in
  let prng = Prng.create 47L in
  let mk axes =
    Dense.rand prng (List.map (fun a -> (a, List.assoc a sizes)) axes)
      ~lo:(-1.0) ~hi:1.0
  in
  let q_t = mk [ "p"; "h"; "b"; "k" ] and k_t = mk [ "p"; "h"; "b"; "j" ] in
  let run d =
    Pool.with_domains d (fun () ->
        Einsum.contract ~fast:true [ q_t; k_t ] ~out:[ "h"; "b"; "j"; "k" ])
  in
  check_bool "parallel MHA contraction bitwise" true
    (Dense.max_abs_diff (run 1) (run 4) = 0.0)

(* ---------------- bitwise identity: fused programs ---------------- *)

(* Run the fused encoder (forward + backward, dropout, softmax, layernorm)
   at two domain counts and require every container bitwise identical.
   Sizes chosen so the row-sharded kernels and element-wise chains all
   clear their parallel thresholds. *)
let test_fused_program_parallel_bitwise () =
  let hp =
    {
      Transformer.Hparams.tiny with
      batch = 2;
      seq = 32;
      embed = 64;
      heads = 4;
      proj = 16;
      ff = 128;
      dropout_p = 0.1;
    }
  in
  let program = Transformer.Encoder.program hp in
  let fused =
    Substation.Fusion.fuse ~name_table:Transformer.Encoder.kernel_names
      program
  in
  let prng = Prng.create 11L in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  let inputs = ("x", x) :: ("d_y", d_y) :: params in
  let run d =
    Pool.with_domains d (fun () ->
        Fastmode.with_mode true (fun () -> Ops.Program.run fused inputs))
  in
  let env_serial = run 1 and env_par = run 4 in
  check_int "same containers materialized" (Hashtbl.length env_serial)
    (Hashtbl.length env_par);
  Hashtbl.iter
    (fun container t_serial ->
      match Hashtbl.find_opt env_par container with
      | None -> Alcotest.failf "container %s missing in parallel run" container
      | Some t_par ->
          let d = Dense.max_abs_diff t_serial t_par in
          if d <> 0.0 then
            Alcotest.failf "container %s differs by %g (not bitwise)"
              container d)
    env_serial

(* ---------------- bitwise identity: autotuning sweeps ---------------- *)

let device = Gpu.Device.v100

let tiny_fused =
  lazy
    (Substation.Fusion.fuse ~name_table:Transformer.Encoder.kernel_names
       (Transformer.Encoder.program Transformer.Hparams.tiny))

let faults = Gpu.Faults.uniform_rate ~seed:7L ~noise_sigma:0.05 0.1

let stats_equal (a : Substation.Perfdb.sweep_stats)
    (b : Substation.Perfdb.sweep_stats) =
  a.measurements = b.measurements
  && a.retries = b.retries
  && a.transient_failures = b.transient_failures
  && a.quarantined_configs = b.quarantined_configs
  && Int64.equal
       (Int64.bits_of_float a.backoff_time)
       (Int64.bits_of_float b.backoff_time)
  && a.resumed_ops = b.resumed_ops

let db_identical name a b =
  check_string (name ^ ": entry tables identical (medians included)")
    (Substation.Perfdb.export_csv a)
    (Substation.Perfdb.export_csv b);
  check_bool (name ^ ": quarantine sets identical") true
    (Substation.Perfdb.quarantine a = Substation.Perfdb.quarantine b);
  check_bool (name ^ ": sweep stats identical (bitwise backoff)") true
    (stats_equal (Substation.Perfdb.stats a) (Substation.Perfdb.stats b))

let test_perfdb_parallel_identity () =
  let program = Lazy.force tiny_fused in
  let build d =
    Pool.with_domains d (fun () ->
        Substation.Perfdb.build ~faults ~device program)
  in
  db_identical "faulty sweep" (build 1) (build 4)

let test_perfdb_checkpoint_interop () =
  let program = Lazy.force tiny_fused in
  check_string "serial and parallel sweeps share the checkpoint identity"
    (Pool.with_domains 1 (fun () ->
         Substation.Perfdb.fingerprint ~faults ~device program))
    (Pool.with_domains 4 (fun () ->
         Substation.Perfdb.fingerprint ~faults ~device program));
  (* Interrupt a serial sweep after two ops, then resume once serially and
     once in parallel from identical checkpoints: the finished databases
     must be indistinguishable. *)
  let interrupted () =
    let path = Filename.temp_file "pool_ckpt" ".bin" in
    (* temp_file creates an empty file; build must see a fresh path. *)
    Sys.remove path;
    (try
       ignore
         (Pool.with_domains 1 (fun () ->
              Substation.Perfdb.build ~faults ~checkpoint:path
                ~interrupt_after:2 ~device program));
       Alcotest.fail "sweep was not interrupted"
     with Substation.Perfdb.Interrupted _ -> ());
    path
  in
  let resume d path =
    let db =
      Pool.with_domains d (fun () ->
          Substation.Perfdb.build ~faults ~checkpoint:path ~device program)
    in
    (* build deletes its checkpoint on completion; clean up defensively. *)
    (try Sys.remove path with Sys_error _ -> ());
    db
  in
  let p1 = interrupted () and p2 = interrupted () in
  db_identical "interrupted-then-resumed sweep" (resume 1 p1) (resume 4 p2)

let () =
  Alcotest.run "pool"
    [
      ( "parallel_for",
        [
          Alcotest.test_case "chunks partition the range exactly" `Quick
            test_coverage;
          Alcotest.test_case "reduce merges in ascending order" `Quick
            test_reduce_order;
          Alcotest.test_case "exceptions propagate, pool survives" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested regions run inline" `Quick
            test_nested_regions_serialize;
        ] );
      ( "bitwise kernels",
        [
          q prop_gemm_parallel_bitwise;
          Alcotest.test_case "gemm with offsets" `Quick
            test_gemm_offsets_parallel_bitwise;
          Alcotest.test_case "gemm on odd row shards" `Quick
            test_gemm_odd_row_shards;
          Alcotest.test_case "batched-matmul einsum" `Quick
            test_einsum_parallel_bitwise;
          Alcotest.test_case "MHA contraction" `Quick
            test_einsum_mha_parallel_bitwise;
          Alcotest.test_case "fused encoder program" `Quick
            test_fused_program_parallel_bitwise;
        ] );
      ( "autotuning sweeps",
        [
          Alcotest.test_case "parallel sweep database identical" `Slow
            test_perfdb_parallel_identity;
          Alcotest.test_case "checkpoint interop serial<->parallel" `Slow
            test_perfdb_checkpoint_interop;
        ] );
    ]

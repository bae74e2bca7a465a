type spec = { operands : Axis.t list list; result : Axis.t list }

let letters s = List.init (String.length s) (fun i -> String.make 1 s.[i])

let parse_uncached str =
  match String.index_opt str '-' with
  | Some i when i + 1 < String.length str && str.[i + 1] = '>' ->
      let lhs = String.sub str 0 i in
      let rhs = String.sub str (i + 2) (String.length str - i - 2) in
      let operands = List.map letters (String.split_on_char ',' lhs) in
      let result = letters rhs in
      List.iter
        (fun op ->
          if not (Axis.distinct op) then
            invalid_arg ("Einsum.parse: repeated axis in operand of " ^ str))
        (result :: operands);
      { operands; result }
  | _ -> invalid_arg ("Einsum.parse: missing '->' in " ^ str)

(* Specs are parsed on every [eval] in hot loops (each encoder-layer op re-
   evaluates its spec string per run), so successful parses are memoized.
   What the memo earns (2-vCPU Xeon, native build, encoder specs): a hit
   costs 0.02-0.04 us against 0.5-0.7 us for [parse_uncached]. *)
let parse_cache : (string, spec) Hashtbl.t = Hashtbl.create 64

let parse str =
  match Hashtbl.find_opt parse_cache str with
  | Some s -> s
  | None ->
      let s = parse_uncached str in
      if Hashtbl.length parse_cache > 4096 then Hashtbl.reset parse_cache;
      Hashtbl.add parse_cache str s;
      s

let spec_to_string { operands; result } =
  String.concat "," (List.map (String.concat "") operands)
  ^ "->"
  ^ String.concat "" result

let axis_sizes inputs =
  (* Collect sizes of all named axes across inputs, checking consistency. *)
  let table = Hashtbl.create 16 in
  List.iter
    (fun t ->
      List.iter
        (fun (a, d) ->
          match Hashtbl.find_opt table a with
          | None -> Hashtbl.add table a d
          | Some d' ->
              if d <> d' then
                invalid_arg
                  (Printf.sprintf "Einsum: axis %s has sizes %d and %d" a d' d))
        (Shape.to_list (Dense.shape t)))
    inputs;
  table

(* ------------------------------------------------------------------ *)
(* Naive reference path: a fully general odometer loop. Stays in-tree   *)
(* as the oracle every fast path is validated against.                  *)
(* ------------------------------------------------------------------ *)

(* One multiply-accumulate sweep of the odometer: [dims] is the loop nest
   (output axes outer, reduced axes inner), [strides] the per-input flat
   strides aligned with [dims]. *)
let odometer_contract ~scale ~dims ~strides ~out_strides ~datas ~out_data =
  let n = Array.length dims in
  let k = Array.length datas in
  let offs = Array.make k 0 in
  let out_off = ref 0 in
  let idx = Array.make n 0 in
  let total = Array.fold_left ( * ) 1 dims in
  for _ = 1 to total do
    let p = ref scale in
    for i = 0 to k - 1 do
      p := !p *. datas.(i).(offs.(i))
    done;
    out_data.(!out_off) <- out_data.(!out_off) +. !p;
    let rec bump d =
      if d >= 0 then begin
        idx.(d) <- idx.(d) + 1;
        for i = 0 to k - 1 do
          offs.(i) <- offs.(i) + strides.(i).(d)
        done;
        out_off := !out_off + out_strides.(d);
        if idx.(d) = dims.(d) then begin
          idx.(d) <- 0;
          for i = 0 to k - 1 do
            offs.(i) <- offs.(i) - (strides.(i).(d) * dims.(d))
          done;
          out_off := !out_off - (out_strides.(d) * dims.(d));
          bump (d - 1)
        end
      end
    in
    bump (n - 1)
  done

let contract_naive ~scale inputs ~out =
  let sizes = axis_sizes inputs in
  let size a =
    match Hashtbl.find_opt sizes a with
    | Some d -> d
    | None -> invalid_arg ("Einsum.contract: output axis absent from inputs: " ^ a)
  in
  let all_in_axes =
    List.fold_left (fun acc t -> Axis.union acc (Dense.axes t)) [] inputs
  in
  let reduced = Axis.diff all_in_axes out in
  let loop_axes = out @ reduced in
  let out_t = Dense.zeros (List.map (fun a -> (a, size a)) out) in
  let dims = Array.of_list (List.map size loop_axes) in
  let strides =
    Array.of_list (List.map (fun t -> Dense.strides_for t loop_axes) inputs)
  in
  let out_strides = Dense.strides_for out_t loop_axes in
  let datas = Array.of_list (List.map Dense.unsafe_data inputs) in
  odometer_contract ~scale ~dims ~strides ~out_strides ~datas
    ~out_data:(Dense.unsafe_data out_t);
  out_t

(* ------------------------------------------------------------------ *)
(* Fast path: precomputed stride/loop plans, cached per                 *)
(* (output axes, input shapes+layouts) key, with matmul-shaped          *)
(* contractions lowered onto the blocked Gemm kernel.                   *)
(* ------------------------------------------------------------------ *)

(* How one operand is read as a packed row-major matrix for a fixed batch
   offset: [direct] when its (rows @ cols) strides are already the packed
   row-major strides, otherwise an odometer copy into arena scratch. *)
type mat_view = {
  direct : bool;
  vdims : int array;
  vstrides : int array;
}

type matmul_plan = {
  row_input : int;  (* operand index providing the GEMM rows *)
  mm : int;
  nn : int;
  kk : int;
  mp_out_dims : (Axis.t * int) list;
  batch_dims : int array;
  row_batch_strides : int array;
  col_batch_strides : int array;
  out_batch_strides : int array;
  row_view : mat_view;  (* [m][k] view of the row provider *)
  col_view : mat_view;  (* [k][n] view of the column provider *)
  out_view : mat_view;  (* [m][n] view of the output *)
}

type general_plan = {
  gp_out_dims : (Axis.t * int) list;
  gp_dims : int array;
  gp_strides : int array array;
  gp_out_strides : int array;
}

type plan = Matmul of matmul_plan | General of general_plan

(* Compiled-plan cache, bounded by an LRU cap: serving workloads present
   many distinct shapes (one per ragged batch geometry), so unbounded
   growth would be a slow leak. What the cache earns (2-vCPU Xeon, native
   build, encoder-layer contractions): building the key and looking it up
   costs 0.8-1.5 us, [build_plan] 3.1-4.4 us, so a hit saves roughly
   2-3 us per fast contraction. *)
type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

let plan_cache : (string, plan) Lru.t = Lru.create 512

let cache_stats () =
  {
    hits = Lru.hits plan_cache;
    misses = Lru.misses plan_cache;
    evictions = Lru.evictions plan_cache;
    entries = Lru.length plan_cache;
    capacity = Lru.capacity plan_cache;
  }

let plan_lookup key build =
  match Lru.find plan_cache key with
  | Some p -> p
  | None ->
      let p = build () in
      Lru.add plan_cache key p;
      p

let clear_caches () =
  Lru.reset plan_cache;
  Hashtbl.reset parse_cache

(* Axis names are [a-z0-9_]*, so ',' ':' '|' are safe separators. The key
   captures output axes plus every input's axes-in-storage-order and sizes:
   everything [build_plan] reads. The regime needs no suffix: the cache is
   consulted only in fast mode, and the pool's domain count is read by
   [run_matmul] at run time, never baked into a plan. *)
let plan_key inputs ~out =
  let buf = Buffer.create 64 in
  List.iter
    (fun a ->
      Buffer.add_string buf a;
      Buffer.add_char buf ',')
    out;
  List.iter
    (fun t ->
      Buffer.add_char buf '|';
      List.iter
        (fun (a, d) ->
          Buffer.add_string buf a;
          Buffer.add_char buf ':';
          Buffer.add_string buf (string_of_int d);
          Buffer.add_char buf ',')
        (Shape.to_list (Dense.shape t)))
    inputs;
  Buffer.contents buf

let canonical_strides dims =
  let n = Array.length dims in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * dims.(i + 1)
  done;
  st

let shape_strides_for sh loop_axes =
  let strides = Shape.strides sh in
  Array.of_list
    (List.map
       (fun a ->
         match Shape.index sh a with
         | p -> strides.(p)
         | exception Not_found -> 0)
       loop_axes)

let mat_view_of sh axes =
  let vdims = Array.of_list (List.map (Shape.size sh) axes) in
  let vstrides = shape_strides_for sh axes in
  { direct = vstrides = canonical_strides vdims; vdims; vstrides }

let prod size axes = List.fold_left (fun acc a -> acc * size a) 1 axes

(* Classify a two-operand contraction into batch/m/n/k axis groups. Returns
   [None] when an axis lives in exactly one operand and not the output
   (a reduction GEMM cannot express) — those fall back to the general loop. *)
let build_matmul ta tb ~out ~size =
  let oa = Dense.axes ta and ob = Dense.axes tb in
  let inter_ab = Axis.inter oa ob in
  let batch = List.filter (fun a -> List.mem a inter_ab) out in
  let kax = Axis.diff inter_ab out in
  let ma = List.filter (fun a -> List.mem a oa && not (List.mem a ob)) out in
  let na = List.filter (fun a -> List.mem a ob && not (List.mem a oa)) out in
  let covered = batch @ kax @ ma @ na in
  if not (Axis.equal_sets covered (Axis.union oa (Axis.union ob out))) then None
  else begin
    (* Prefer the role assignment whose (rows @ cols) order matches the
       output's trailing axes, enabling a direct (scatter-free) C write. *)
    let rest = List.filter (fun a -> not (List.mem a batch)) out in
    let swap = rest = na @ ma && rest <> ma @ na in
    let rows, cols, row_t, col_t, row_input =
      if swap then (na, ma, tb, ta, 1) else (ma, na, ta, tb, 0)
    in
    let out_dims = List.map (fun a -> (a, size a)) out in
    let out_sh = Shape.create out_dims in
    Some
      {
        row_input;
        mm = prod size rows;
        nn = prod size cols;
        kk = prod size kax;
        mp_out_dims = out_dims;
        batch_dims = Array.of_list (List.map size batch);
        row_batch_strides = Dense.strides_for row_t batch;
        col_batch_strides = Dense.strides_for col_t batch;
        out_batch_strides = shape_strides_for out_sh batch;
        row_view = mat_view_of (Dense.shape row_t) (rows @ kax);
        col_view = mat_view_of (Dense.shape col_t) (kax @ cols);
        out_view = mat_view_of out_sh (rows @ cols);
      }
  end

let build_general inputs ~out ~size =
  let all_in_axes =
    List.fold_left (fun acc t -> Axis.union acc (Dense.axes t)) [] inputs
  in
  let reduced = Axis.diff all_in_axes out in
  let loop_axes = out @ reduced in
  let out_dims = List.map (fun a -> (a, size a)) out in
  let out_sh = Shape.create out_dims in
  {
    gp_out_dims = out_dims;
    gp_dims = Array.of_list (List.map size loop_axes);
    gp_strides =
      Array.of_list (List.map (fun t -> Dense.strides_for t loop_axes) inputs);
    gp_out_strides = shape_strides_for out_sh loop_axes;
  }

let build_plan inputs ~out =
  let sizes = axis_sizes inputs in
  let size a =
    match Hashtbl.find_opt sizes a with
    | Some d -> d
    | None -> invalid_arg ("Einsum.contract: output axis absent from inputs: " ^ a)
  in
  match inputs with
  | [ ta; tb ] -> begin
      match build_matmul ta tb ~out ~size with
      | Some p -> Matmul p
      | None -> General (build_general inputs ~out ~size)
    end
  | _ -> General (build_general inputs ~out ~size)

(* The stride of a view's innermost run (a scalar view is one run of 1). *)
let inner_stride view =
  let nd = Array.length view.vdims in
  if nd = 0 then 1 else view.vstrides.(nd - 1)

(* Copy a strided matrix view into packed row-major scratch, one innermost
   run at a time; a unit-stride run is one blit. *)
let pack (src : float array) src_off view (dst : float array) count =
  let st = inner_stride view in
  Dense.iter_runs view.vdims view.vstrides ~lo:0 ~hi:count (fun k off run ->
      let o = src_off + off in
      if st = 1 then Array.blit src o dst k run
      else
        for t = 0 to run - 1 do
          Array.unsafe_set dst (k + t) (Array.unsafe_get src (o + (t * st)))
        done)

(* Write packed GEMM results out through the output's stride view, one
   innermost run at a time. *)
let scatter_scaled (buf : float array) (out_data : float array) out_off view
    count scale =
  let st = inner_stride view in
  Dense.iter_runs view.vdims view.vstrides ~lo:0 ~hi:count (fun k off run ->
      let o = out_off + off in
      for t = 0 to run - 1 do
        Array.unsafe_set out_data (o + (t * st))
          (scale *. Array.unsafe_get buf (k + t))
      done)

(* Decompose a linear batch index (row-major over [batch_dims]) into the
   per-dimension multi-index, so a worker can start mid-sequence. *)
let batch_index dims lin =
  let nb = Array.length dims in
  let idx = Array.make nb 0 in
  let rem = ref lin in
  for d = nb - 1 downto 0 do
    idx.(d) <- !rem mod dims.(d);
    rem := !rem / dims.(d)
  done;
  idx

let dot idx strides =
  let acc = ref 0 in
  for d = 0 to Array.length idx - 1 do
    acc := !acc + (idx.(d) * strides.(d))
  done;
  !acc

(* Kept only for perfbench, which still reads these counters. No weight
   image is packed ahead of time any more (each weight is stored in the
   layout its GEMM reads), so both counters stay zero. *)
type prepack_stats = { pp_hits : int; pp_builds : int }

let prepack_stats () = { pp_hits = 0; pp_builds = 0 }
let clear_prepacked () = ()

(* Below this total multiply-accumulate volume a batch-parallel region is
   not worth dispatching. *)
let par_min_work = 8192

let run_matmul p ~scale inputs =
  let row_t = List.nth inputs p.row_input
  and col_t = List.nth inputs (1 - p.row_input) in
  let out_t = Dense.zeros p.mp_out_dims in
  let rdata = Dense.unsafe_data row_t
  and cdata = Dense.unsafe_data col_t
  and odata = Dense.unsafe_data out_t in
  let mm = p.mm and nn = p.nn and kk = p.kk in
  let nb = Array.length p.batch_dims in
  let nbatches = Array.fold_left ( * ) 1 p.batch_dims in
  let a_sz = if p.row_view.direct then 0 else mm * kk in
  let b_sz = if p.col_view.direct then 0 else kk * nn in
  let c_sz = if p.out_view.direct then 0 else mm * nn in
  (* One worker's batch sub-range [b_lo, b_hi). Offsets start from the
     decomposed linear index and then bump incrementally exactly as the
     serial loop does; packing scratch comes from the (domain-local)
     arena, so parallel workers never contend on buffers. Each batch
     element writes a disjoint slice of [odata], so any partition of the
     batch range is bitwise identical to the serial sweep. *)
  let run_range b_lo b_hi =
    Arena.with_scratch Arena.global a_sz (fun a_buf ->
        Arena.with_scratch Arena.global b_sz (fun b_buf ->
            Arena.with_scratch Arena.global c_sz (fun c_buf ->
                let bidx = batch_index p.batch_dims b_lo in
                let r_off = ref (dot bidx p.row_batch_strides)
                and c_off = ref (dot bidx p.col_batch_strides)
                and o_off = ref (dot bidx p.out_batch_strides) in
                for _ = b_lo + 1 to b_hi do
                  let a, a_off =
                    if p.row_view.direct then (rdata, !r_off)
                    else begin
                      pack rdata !r_off p.row_view a_buf (mm * kk);
                      (a_buf, 0)
                    end
                  in
                  let b, b_off =
                    if p.col_view.direct then (cdata, !c_off)
                    else begin
                      pack cdata !c_off p.col_view b_buf (kk * nn);
                      (b_buf, 0)
                    end
                  in
                  if p.out_view.direct then begin
                    (* out starts zeroed, so accumulate-in-place is assignment *)
                    Gemm.gemm ~a_off ~b_off ~c_off:!o_off ~m:mm ~n:nn ~k:kk a b
                      odata;
                    if scale <> 1.0 then
                      for t = !o_off to !o_off + (mm * nn) - 1 do
                        Array.unsafe_set odata t (scale *. Array.unsafe_get odata t)
                      done
                  end
                  else begin
                    Array.fill c_buf 0 (mm * nn) 0.0;
                    Gemm.gemm ~a_off ~b_off ~c_off:0 ~m:mm ~n:nn ~k:kk a b c_buf;
                    scatter_scaled c_buf odata !o_off p.out_view (mm * nn) scale
                  end;
                  let rec bump d =
                    if d >= 0 then begin
                      bidx.(d) <- bidx.(d) + 1;
                      r_off := !r_off + p.row_batch_strides.(d);
                      c_off := !c_off + p.col_batch_strides.(d);
                      o_off := !o_off + p.out_batch_strides.(d);
                      if bidx.(d) = p.batch_dims.(d) then begin
                        bidx.(d) <- 0;
                        r_off := !r_off - (p.row_batch_strides.(d) * p.batch_dims.(d));
                        c_off := !c_off - (p.col_batch_strides.(d) * p.batch_dims.(d));
                        o_off := !o_off - (p.out_batch_strides.(d) * p.batch_dims.(d));
                        bump (d - 1)
                      end
                    end
                  in
                  bump (nb - 1)
                done)))
  in
  if
    nbatches >= 2
    && nbatches * mm * nn * kk >= par_min_work
    && Pool.num_domains () > 1
  then
    (* Shard the batch group; the per-batch GEMMs then run serially inside
       each worker (Pool suppresses nested regions). With a single batch
       the row-sharded Gemm kernel parallelizes instead. *)
    Pool.parallel_for ~label:"einsum.matmul" ~start:0 ~finish:nbatches run_range
  else run_range 0 nbatches;
  out_t

let run_general p ~scale inputs =
  let out_t = Dense.zeros p.gp_out_dims in
  odometer_contract ~scale ~dims:p.gp_dims ~strides:p.gp_strides
    ~out_strides:p.gp_out_strides
    ~datas:(Array.of_list (List.map Dense.unsafe_data inputs))
    ~out_data:(Dense.unsafe_data out_t);
  out_t

let contract ?(scale = 1.0) ?fast inputs ~out =
  if inputs = [] then invalid_arg "Einsum.contract: no inputs";
  let fast = match fast with Some b -> b | None -> Fastmode.enabled () in
  if not fast then contract_naive ~scale inputs ~out
  else begin
    let key = plan_key inputs ~out in
    let plan = plan_lookup key (fun () -> build_plan inputs ~out) in
    (* Both fast paths run under the kernel guard: a crash, kernel
       timeout, or (at Nan/Finite level) non-finite output re-executes the
       contraction through the naive odometer oracle. Each attempt starts
       from fresh zeros, so a fallback can never inherit a crashed
       kernel's partial sums. *)
    let guarded kernel run =
      Guard.protected ~kernel
        ~outputs:(fun t -> [ Dense.unsafe_data t ])
        ~fallback:(fun () -> contract_naive ~scale inputs ~out)
        run
    in
    match plan with
    | Matmul p ->
        guarded "einsum.matmul" (fun () -> run_matmul p ~scale inputs)
    | General p ->
        guarded "einsum.general" (fun () -> run_general p ~scale inputs)
  end

let eval ?scale ?fast str inputs =
  let spec = parse str in
  if List.length spec.operands <> List.length inputs then
    invalid_arg ("Einsum.eval: operand count mismatch for " ^ str);
  List.iter2
    (fun op t ->
      if not (Axis.equal_sets op (Dense.axes t)) then
        invalid_arg
          (Printf.sprintf "Einsum.eval: tensor axes {%s} do not match operand %s"
             (String.concat "," (Dense.axes t))
             (String.concat "" op)))
    spec.operands inputs;
  contract ?scale ?fast inputs ~out:spec.result

let loop_axes_of spec =
  let all_in = List.fold_left Axis.union [] spec.operands in
  Axis.union spec.result all_in

let flops spec ~size =
  let loop = loop_axes_of spec in
  2 * List.fold_left (fun acc a -> acc * size a) 1 loop

let io_elements spec ~size =
  let volume axes = List.fold_left (fun acc a -> acc * size a) 1 axes in
  List.fold_left (fun acc op -> acc + volume op) (volume spec.result) spec.operands

type t = { shape : Shape.t; data : float array }

let shape t = t.shape
let volume t = Shape.volume t.shape
let axes t = Shape.axes t.shape
let unsafe_data t = t.data

let zeros dims =
  let shape = Shape.create dims in
  { shape; data = Array.make (Shape.volume shape) 0.0 }

let full dims v =
  let shape = Shape.create dims in
  { shape; data = Array.make (Shape.volume shape) v }

let scalar v = { shape = Shape.create []; data = [| v |] }
let copy t = { t with data = Array.copy t.data }

(* The named coordinates of storage position [pos], decomposed directly
   from [rev_dims], the shape's (axis, size) pairs innermost first. *)
let coords rev_dims pos =
  let rem = ref pos in
  List.fold_left
    (fun acc (a, d) ->
      let i = !rem mod d in
      rem := !rem / d;
      (a, i) :: acc)
    [] rev_dims

let init dims f =
  let t = zeros dims in
  let rev_dims = List.rev (Shape.to_list t.shape) in
  for pos = 0 to Array.length t.data - 1 do
    t.data.(pos) <- f (coords rev_dims pos)
  done;
  t

let of_flat dims values =
  let shape = Shape.create dims in
  if Array.length values <> Shape.volume shape then
    invalid_arg "Dense.of_flat: value count does not match shape volume";
  { shape; data = Array.copy values }

let rand prng dims ~lo ~hi =
  let t = zeros dims in
  for i = 0 to Array.length t.data - 1 do
    t.data.(i) <- Prng.uniform prng ~lo ~hi
  done;
  t

let randn prng dims ~stddev =
  let t = zeros dims in
  for i = 0 to Array.length t.data - 1 do
    t.data.(i) <- stddev *. Prng.gaussian prng
  done;
  t

let flat_index t idx =
  let strides = Shape.strides t.shape in
  let bound = List.length idx in
  if bound <> Shape.rank t.shape then
    invalid_arg "Dense: index must bind every axis exactly once";
  List.fold_left
    (fun acc (a, i) ->
      let p = Shape.index t.shape a in
      let d = Shape.size t.shape a in
      if i < 0 || i >= d then invalid_arg "Dense: index out of bounds";
      acc + (i * strides.(p)))
    0 idx

let get t idx = t.data.(flat_index t idx)
let set t idx v = t.data.(flat_index t idx) <- v

let iter t f =
  let rev_dims = List.rev (Shape.to_list t.shape) in
  Array.iteri (fun pos v -> f (coords rev_dims pos) v) t.data

let strides_for t loop_axes =
  let strides = Shape.strides t.shape in
  Array.of_list
    (List.map
       (fun a ->
         match Shape.index t.shape a with
         | p -> strides.(p)
         | exception Not_found -> 0)
       loop_axes)

(* Walk positions [lo, hi) of the row-major index space [dims] one run at
   a time, tracking one offset [sum idx.(d) * st.(d)] per stride set [st]
   of [sets]. Axis [d] joins the merged axis inside it when it has size 1
   or every set's strides compose across the two (its stride is the
   merged axis' stride times its size), so a run's offsets still step by
   each set's innermost stride. The multi-index of the merged axes
   ([gdims]/[gaxis], innermost first) is decomposed from [lo]; between
   runs it carries like an odometer. Calls [f k offs run] per run, with
   [k] the run's first position minus [lo] and [offs] (reused) its
   offsets. *)
let iter_runs dims sets ~lo ~hi f =
  let n = Array.length dims and nsets = Array.length sets in
  let offs = Array.make nsets 0 in
  if n = 0 then (if lo < hi then f 0 offs 1)
  else if lo < hi then begin
    let gdims = Array.make n dims.(n - 1) and gaxis = Array.make n (n - 1) in
    let ng = ref 1 in
    for d = n - 2 downto 0 do
      let g = !ng - 1 in
      let composes = ref true in
      for s = 0 to nsets - 1 do
        let st = sets.(s) in
        if st.(d) <> st.(gaxis.(g)) * gdims.(g) then composes := false
      done;
      if !composes || dims.(d) = 1 then gdims.(g) <- gdims.(g) * dims.(d)
      else begin
        gdims.(!ng) <- dims.(d);
        gaxis.(!ng) <- d;
        incr ng
      end
    done;
    let ng = !ng in
    let idx = Array.make ng 0 in
    let rem = ref lo in
    for g = 0 to ng - 1 do
      idx.(g) <- !rem mod gdims.(g);
      rem := !rem / gdims.(g);
      for s = 0 to nsets - 1 do
        offs.(s) <- offs.(s) + (idx.(g) * sets.(s).(gaxis.(g)))
      done
    done;
    let inner = gdims.(0) in
    let pos = ref lo in
    while !pos < hi do
      (* Every run but the last ends the inner axis: step back to its
         start, then carry into the outer axes. *)
      let i0 = idx.(0) in
      let run = Int.min (inner - i0) (hi - !pos) in
      f (!pos - lo) offs run;
      pos := !pos + run;
      for s = 0 to nsets - 1 do
        offs.(s) <- offs.(s) - (i0 * sets.(s).(n - 1))
      done;
      idx.(0) <- 0;
      let g = ref 1 in
      while !g < ng do
        let a = !g in
        idx.(a) <- idx.(a) + 1;
        for s = 0 to nsets - 1 do
          offs.(s) <- offs.(s) + sets.(s).(gaxis.(a))
        done;
        if idx.(a) = gdims.(a) then begin
          idx.(a) <- 0;
          for s = 0 to nsets - 1 do
            offs.(s) <- offs.(s) - (sets.(s).(gaxis.(a)) * gdims.(a))
          done;
          g := a + 1
        end
        else g := ng
      done
    done
  end

(* Rebinding of storage order: walk the destination in storage order, one
   copy loop per run of the source. *)
let permute t order =
  if Layout.equal order (Shape.axes t.shape) then copy t
  else begin
    let dst_shape = Shape.reorder t.shape order in
    let src_strides = strides_for t (Shape.axes dst_shape) in
    let si = src_strides.(Array.length src_strides - 1) in
    let sd = t.data and dd = Array.make (volume t) 0.0 in
    iter_runs
      (Array.of_list (Shape.sizes dst_shape))
      [| src_strides |] ~lo:0 ~hi:(volume t)
      (fun k offs run ->
        let o = offs.(0) in
        for q = 0 to run - 1 do
          Array.unsafe_set dd (k + q) (Array.unsafe_get sd (o + (q * si)))
        done);
    { shape = dst_shape; data = dd }
  end

let layout t = Shape.axes t.shape
let align t other = permute t (layout other)

let rename_axes t pairs =
  let rename a =
    match List.assoc_opt a pairs with Some b -> b | None -> a
  in
  let dims = List.map (fun (a, d) -> (rename a, d)) (Shape.to_list t.shape) in
  { t with shape = Shape.create dims }

let map f t = { t with data = Array.map f t.data }

let map2 f t1 t2 =
  if not (Shape.same_semantics t1.shape t2.shape) then
    invalid_arg "Dense.map2: shapes differ semantically";
  let t2 = if Shape.equal t1.shape t2.shape then t2 else align t2 t1 in
  { t1 with data = Array.map2 f t1.data t2.data }

let add = map2 ( +. )

let add_into dst src =
  if not (Shape.same_semantics dst.shape src.shape) then
    invalid_arg "Dense.add_into: shapes differ semantically";
  let s = if Shape.equal dst.shape src.shape then src else align src dst in
  for i = 0 to Array.length dst.data - 1 do
    Array.unsafe_set dst.data i
      (Array.unsafe_get dst.data i +. Array.unsafe_get s.data i)
  done

let sub = map2 ( -. )
let mul = map2 ( *. )
let scale s t = map (fun v -> s *. v) t

(* Broadcast combine: walk [t] in storage order, one run per stretch over
   which [b]'s offset steps by a fixed stride (0 when [t]'s trailing axes
   are absent from [b]). The operation is chosen once, as in [reduce], so
   no element boxes a float. *)
type bcast = Badd | Bmul

let bcast_op op t b =
  if not (Axis.subset (axes b) (axes t)) then
    invalid_arg "Dense.bcast: broadcast axes are not a subset";
  List.iter
    (fun a ->
      if Shape.size b.shape a <> Shape.size t.shape a then
        invalid_arg "Dense.bcast: size mismatch on shared axis")
    (axes b);
  let b_strides = strides_for b (axes t) in
  let n = Array.length b_strides in
  let si = if n = 0 then 0 else b_strides.(n - 1) in
  let td = t.data and bd = b.data and od = Array.make (volume t) 0.0 in
  let combine =
    match op with
    | Badd ->
        fun k o run ->
          for q = 0 to run - 1 do
            Array.unsafe_set od (k + q)
              (Array.unsafe_get td (k + q) +. Array.unsafe_get bd (o + (q * si)))
          done
    | Bmul ->
        fun k o run ->
          for q = 0 to run - 1 do
            Array.unsafe_set od (k + q)
              (Array.unsafe_get td (k + q) *. Array.unsafe_get bd (o + (q * si)))
          done
  in
  iter_runs
    (Array.of_list (Shape.sizes t.shape))
    [| b_strides |] ~lo:0 ~hi:(volume t)
    (fun k offs run -> combine k offs.(0) run);
  { t with data = od }

let add_bcast t b = bcast_op Badd t b
let mul_bcast t b = bcast_op Bmul t b

type reduction = Sum | Max

(* Fold [t] into the kept axes, visiting [t] in storage order and
   combining each element into its output cell as it is reached — the
   accumulation order every fast kernel is checked against. Within one
   innermost-axis run the output offset moves by a fixed stride (0 when
   that axis is reduced, so the cell accumulates in a register). The
   combine is chosen once and called once per run, and no element boxes
   a float. *)
let reduce red t red_axes =
  List.iter
    (fun a ->
      if not (Shape.mem t.shape a) then
        invalid_arg "Dense.reduce: unknown reduction axis")
    red_axes;
  let keep = Axis.diff (axes t) red_axes in
  let out_dims = List.map (fun a -> (a, Shape.size t.shape a)) keep in
  let out = full out_dims (match red with Sum -> 0.0 | Max -> neg_infinity) in
  let dims = Array.of_list (Shape.sizes t.shape) in
  let out_strides = strides_for out (Shape.axes t.shape) in
  let n = Array.length dims in
  let si = if n = 0 then 0 else out_strides.(n - 1) in
  let td = t.data and od = out.data in
  let combine =
    match red with
    | Sum when si = 0 ->
        fun base o run ->
          let acc = ref (Array.unsafe_get od o) in
          for q = 0 to run - 1 do
            acc := !acc +. Array.unsafe_get td (base + q)
          done;
          Array.unsafe_set od o !acc
    | Sum ->
        fun base o run ->
          for q = 0 to run - 1 do
            let oq = o + (q * si) in
            Array.unsafe_set od oq
              (Array.unsafe_get od oq +. Array.unsafe_get td (base + q))
          done
    | Max ->
        fun base o run ->
          for q = 0 to run - 1 do
            let oq = o + (q * si) in
            Array.unsafe_set od oq
              (Float.max (Array.unsafe_get od oq) (Array.unsafe_get td (base + q)))
          done
  in
  iter_runs dims [| out_strides |] ~lo:0 ~hi:(volume t) (fun base offs run ->
      combine base offs.(0) run);
  out

let sum_over t red_axes = reduce Sum t red_axes
let max_over t red_axes = reduce Max t red_axes
let sum_all t = Array.fold_left ( +. ) 0.0 t.data

let mean_over t red_axes =
  let count =
    List.fold_left (fun acc a -> acc * Shape.size t.shape a) 1 red_axes
  in
  scale (1.0 /. float_of_int count) (sum_over t red_axes)

let reduce_bcast src dst_axes = sum_over src (Axis.diff (axes src) dst_axes)

let quantize_fp16 t = map Half.round t

let item t =
  if volume t <> 1 then invalid_arg "Dense.item: tensor has more than one element";
  t.data.(0)

let max_abs_diff t1 t2 =
  let t2 = align t2 t1 in
  let m = ref 0.0 in
  Array.iteri (fun i v -> m := Float.max !m (Float.abs (v -. t2.data.(i)))) t1.data;
  !m

let approx_equal ?(rtol = 1e-9) ?(atol = 1e-12) t1 t2 =
  if not (Shape.same_semantics t1.shape t2.shape) then false
  else begin
    let t2 = align t2 t1 in
    let ok = ref true in
    Array.iteri
      (fun i v ->
        let w = t2.data.(i) in
        if Float.abs (v -. w) > atol +. (rtol *. Float.max (Float.abs v) (Float.abs w))
        then ok := false)
      t1.data;
    !ok
  end

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>tensor %a@ [" Shape.pp t.shape;
  let n = Stdlib.min 16 (Array.length t.data) in
  for i = 0 to n - 1 do
    if i > 0 then Format.fprintf ppf ";@ ";
    Format.fprintf ppf "%g" t.data.(i)
  done;
  if Array.length t.data > n then Format.fprintf ppf "; ...";
  Format.fprintf ppf "]@]"

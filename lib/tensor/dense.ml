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

(* Iterate a multi-index odometer over [dims] in row-major order, calling
   [f] with the current multi-index. The same [idx] array is reused across
   calls — callers must read it immediately and never retain or mutate it. *)
let iter_flat dims f =
  let n = Array.length dims in
  if n = 0 then f [||]
  else begin
    let idx = Array.make n 0 in
    let total = Array.fold_left ( * ) 1 dims in
    for _ = 1 to total do
      f idx;
      let rec bump d =
        if d >= 0 then begin
          idx.(d) <- idx.(d) + 1;
          if idx.(d) = dims.(d) then begin
            idx.(d) <- 0;
            bump (d - 1)
          end
        end
      in
      bump (n - 1)
    done
  end

let init dims f =
  let t = zeros dims in
  let ax = Array.of_list (Shape.axes t.shape) in
  let dim_arr = Array.of_list (Shape.sizes t.shape) in
  let pos = ref 0 in
  iter_flat dim_arr (fun idx ->
      let named = Array.to_list (Array.mapi (fun i a -> (a, idx.(i))) ax) in
      t.data.(!pos) <- f named;
      incr pos);
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
  let ax = Array.of_list (Shape.axes t.shape) in
  let dims = Array.of_list (Shape.sizes t.shape) in
  let pos = ref 0 in
  iter_flat dims (fun idx ->
      let named = Array.to_list (Array.mapi (fun i a -> (a, idx.(i))) ax) in
      f named t.data.(!pos);
      incr pos)

let strides_for t loop_axes =
  let strides = Shape.strides t.shape in
  Array.of_list
    (List.map
       (fun a ->
         match Shape.index t.shape a with
         | p -> strides.(p)
         | exception Not_found -> 0)
       loop_axes)

(* Generic rebinding of storage order: walk the destination in storage order
   while tracking the source offset incrementally. *)
let permute t order =
  if Layout.equal order (Shape.axes t.shape) then copy t
  else begin
    let dst_shape = Shape.reorder t.shape order in
    let dst = { shape = dst_shape; data = Array.make (volume t) 0.0 } in
    let dims = Array.of_list (Shape.sizes dst_shape) in
    let src_strides = strides_for t (Shape.axes dst_shape) in
    let n = Array.length dims in
    let idx = Array.make n 0 in
    let src_off = ref 0 in
    let total = Shape.volume dst_shape in
    for pos = 0 to total - 1 do
      dst.data.(pos) <- t.data.(!src_off);
      let rec bump d =
        if d >= 0 then begin
          idx.(d) <- idx.(d) + 1;
          src_off := !src_off + src_strides.(d);
          if idx.(d) = dims.(d) then begin
            idx.(d) <- 0;
            src_off := !src_off - (src_strides.(d) * dims.(d));
            bump (d - 1)
          end
        end
      in
      bump (n - 1)
    done;
    dst
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

(* Broadcast combine. Two layouts cover almost every use in this repo and
   admit direct indexed loops instead of a per-element odometer bump:
   (1) [b]'s axes are exactly the trailing axes of [t] in matching storage
   order, so the broadcast offset cycles 0..volume b - 1 contiguously;
   (2) the trailing axes of [t] are absent from [b], so the broadcast
   offset is constant over a contiguous inner run. Anything else falls
   back to the general odometer. *)
let bcast_op op t b =
  if not (Axis.subset (axes b) (axes t)) then
    invalid_arg "Dense.bcast: broadcast axes are not a subset";
  List.iter
    (fun a ->
      if Shape.size b.shape a <> Shape.size t.shape a then
        invalid_arg "Dense.bcast: size mismatch on shared axis")
    (axes b);
  let out = copy t in
  let t_ax = Shape.axes t.shape in
  let dims = Array.of_list (Shape.sizes t.shape) in
  let n = Array.length dims in
  let total = volume t in
  let vol_b = volume b in
  let b_ax = Shape.axes b.shape in
  let rb = List.length b_ax in
  let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
  let suffix_matches =
    rb <= n && List.for_all2 Axis.equal (drop (n - rb) t_ax) b_ax
  in
  let td = out.data and bd = b.data in
  if suffix_matches then begin
    let pos = ref 0 in
    while !pos < total do
      let base = !pos in
      for q = 0 to vol_b - 1 do
        Array.unsafe_set td (base + q)
          (op (Array.unsafe_get td (base + q)) (Array.unsafe_get bd q))
      done;
      pos := base + vol_b
    done;
    out
  end
  else begin
    let ax_arr = Array.of_list t_ax in
    let b_strides = strides_for b t_ax in
    let rec split i =
      if i >= 0 && not (Shape.mem b.shape ax_arr.(i)) then split (i - 1) else i
    in
    let last_b = split (n - 1) in
    let inner = ref 1 in
    for i = last_b + 1 to n - 1 do
      inner := !inner * dims.(i)
    done;
    let inner = !inner in
    if inner > 1 then begin
      let outer_n = last_b + 1 in
      let idx = Array.make (Stdlib.max outer_n 1) 0 in
      let b_off = ref 0 in
      let pos = ref 0 in
      for _ = 1 to total / inner do
        let base = !pos and boff = !b_off in
        let bv = Array.unsafe_get bd boff in
        for q = 0 to inner - 1 do
          Array.unsafe_set td (base + q) (op (Array.unsafe_get td (base + q)) bv)
        done;
        pos := base + inner;
        let rec bump d =
          if d >= 0 then begin
            idx.(d) <- idx.(d) + 1;
            b_off := !b_off + b_strides.(d);
            if idx.(d) = dims.(d) then begin
              idx.(d) <- 0;
              b_off := !b_off - (b_strides.(d) * dims.(d));
              bump (d - 1)
            end
          end
        in
        bump (outer_n - 1)
      done;
      out
    end
    else begin
      let idx = Array.make n 0 in
      let b_off = ref 0 in
      for pos = 0 to total - 1 do
        out.data.(pos) <- op t.data.(pos) b.data.(!b_off);
        let rec bump d =
          if d >= 0 then begin
            idx.(d) <- idx.(d) + 1;
            b_off := !b_off + b_strides.(d);
            if idx.(d) = dims.(d) then begin
              idx.(d) <- 0;
              b_off := !b_off - (b_strides.(d) * dims.(d));
              bump (d - 1)
            end
          end
        in
        bump (n - 1)
      done;
      out
    end
  end

let add_bcast t b = bcast_op ( +. ) t b
let mul_bcast t b = bcast_op ( *. ) t b

(* Walk positions [lo, hi) of the row-major index space [dims] one
   innermost-axis run at a time. The multi-index is decomposed from [lo];
   between runs an odometer carries into the outer axes, tracking the
   offset [sum idx.(d) * strides.(d)]. Calls [f k off run] per run, with
   [k] the run's first position minus [lo] and [off] its offset. *)
let iter_runs dims strides ~lo ~hi f =
  let n = Array.length dims in
  if n = 0 then (if lo < hi then f 0 0 1)
  else begin
    let idx = Array.make n 0 in
    let rem = ref lo and off = ref 0 in
    for d = n - 1 downto 0 do
      idx.(d) <- !rem mod dims.(d);
      rem := !rem / dims.(d);
      off := !off + (idx.(d) * strides.(d))
    done;
    let inner = dims.(n - 1) and si = strides.(n - 1) in
    let pos = ref lo in
    while !pos < hi do
      let run = Int.min (inner - idx.(n - 1)) (hi - !pos) in
      f (!pos - lo) !off run;
      pos := !pos + run;
      off := !off + (run * si);
      idx.(n - 1) <- idx.(n - 1) + run;
      if idx.(n - 1) = inner then begin
        idx.(n - 1) <- 0;
        off := !off - (inner * si);
        let d = ref (n - 2) in
        while !d >= 0 do
          let a = !d in
          idx.(a) <- idx.(a) + 1;
          off := !off + strides.(a);
          if idx.(a) = dims.(a) then begin
            idx.(a) <- 0;
            off := !off - (strides.(a) * dims.(a));
            d := a - 1
          end
          else d := -1
        done
      end
    done
  end

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
  iter_runs dims out_strides ~lo:0 ~hi:(volume t) combine;
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

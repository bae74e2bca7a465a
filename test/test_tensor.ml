(* Tests for the tensor substrate: axes, shapes, layouts, PRNG, the FP16
   codec, dense tensors, einsum, and the finite-difference checker. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Axis ---------------- *)

let test_axis_validate () =
  Axis.validate "abc_1";
  Alcotest.check_raises "empty" (Invalid_argument "Axis.validate: empty axis name")
    (fun () -> Axis.validate "");
  check_bool "bad char raises" true
    (try
       Axis.validate "A";
       false
     with Invalid_argument _ -> true)

let test_axis_sets () =
  check_bool "distinct" true (Axis.distinct [ "a"; "b"; "c" ]);
  check_bool "not distinct" false (Axis.distinct [ "a"; "b"; "a" ]);
  Alcotest.(check (list string))
    "union" [ "a"; "b"; "c" ]
    (Axis.union [ "a"; "b" ] [ "b"; "c" ]);
  Alcotest.(check (list string)) "inter" [ "b" ] (Axis.inter [ "a"; "b" ] [ "b"; "c" ]);
  Alcotest.(check (list string)) "diff" [ "a" ] (Axis.diff [ "a"; "b" ] [ "b"; "c" ]);
  check_bool "subset" true (Axis.subset [ "a" ] [ "a"; "b" ]);
  check_bool "equal_sets" true (Axis.equal_sets [ "a"; "b" ] [ "b"; "a" ])

(* ---------------- Shape ---------------- *)

let test_shape_basic () =
  let s = Shape.create [ ("b", 2); ("j", 3); ("i", 4) ] in
  check_int "rank" 3 (Shape.rank s);
  check_int "volume" 24 (Shape.volume s);
  check_int "size i" 4 (Shape.size s "i");
  check_int "index j" 1 (Shape.index s "j");
  Alcotest.(check (array int)) "strides" [| 12; 4; 1 |] (Shape.strides s)

let test_shape_errors () =
  check_bool "dup axis" true
    (try
       ignore (Shape.create [ ("a", 2); ("a", 3) ]);
       false
     with Invalid_argument _ -> true);
  check_bool "zero size" true
    (try
       ignore (Shape.create [ ("a", 0) ]);
       false
     with Invalid_argument _ -> true)

let test_shape_reorder () =
  let s = Shape.create [ ("b", 2); ("j", 3); ("i", 4) ] in
  let r = Shape.reorder s [ "i"; "b"; "j" ] in
  Alcotest.(check (list string)) "axes" [ "i"; "b"; "j" ] (Shape.axes r);
  check_bool "same semantics" true (Shape.same_semantics s r);
  check_bool "not equal" false (Shape.equal s r);
  let d = Shape.drop s "j" in
  Alcotest.(check (list string)) "dropped" [ "b"; "i" ] (Shape.axes d)

(* ---------------- Layout ---------------- *)

let test_layout_all () =
  let ls = Layout.all [ "a"; "b"; "c" ] in
  check_int "3! perms" 6 (List.length ls);
  check_bool "identity first" true (Layout.equal (List.hd ls) [ "a"; "b"; "c" ]);
  let ls4 = Layout.all [ "a"; "b"; "c"; "d" ] in
  check_int "4! perms" 24 (List.length ls4);
  check_int "all distinct" 24 (List.length (List.sort_uniq Layout.compare ls4))

let test_layout_ops () =
  let l = Layout.of_letters "phbj" in
  Alcotest.(check string) "innermost" "j" (Layout.innermost l);
  check_int "position" 2 (Layout.position l "b");
  check_bool "contiguous" true (Layout.contiguous_for l "j");
  check_bool "not contiguous" false (Layout.contiguous_for l "p");
  check_int "transpositions self" 0 (Layout.transpositions l l);
  check_int "transpositions reversed" 6
    (Layout.transpositions l (List.rev l));
  Alcotest.(check string) "roundtrip" "p,h,b,j" (Layout.to_string l)

(* ---------------- Prng ---------------- *)

let test_prng_determinism () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 10 do
    check_float "same stream" (Prng.float a) (Prng.float b)
  done;
  let c = Prng.of_key 42L "dropout1" and d = Prng.of_key 42L "dropout2" in
  check_bool "different keys decorrelate" true (Prng.float c <> Prng.float d)

let test_prng_ranges () =
  let p = Prng.create 7L in
  for _ = 1 to 1000 do
    let f = Prng.float p in
    check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0);
    let i = Prng.int p ~bound:17 in
    check_bool "int in range" true (i >= 0 && i < 17)
  done

let test_prng_gaussian () =
  let p = Prng.create 123L in
  let n = 20000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let g = Prng.gaussian p in
    sum := !sum +. g;
    sum2 := !sum2 +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  check_bool "mean ~ 0" true (Float.abs mean < 0.05);
  check_bool "var ~ 1" true (Float.abs (var -. 1.0) < 0.05)

let test_prng_bernoulli () =
  let p = Prng.create 5L in
  let hits = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Prng.bernoulli p ~p:0.1 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool "p ~ 0.1" true (Float.abs (rate -. 0.1) < 0.02)

(* The C fill draws what the keep_at loop draws, bitwise: random stream
   positions and lengths (every length mod 4 included), at rates whose
   p * 2^53 is and is not an integer. *)
let test_prng_keep_fill () =
  let prng = Prng.create 31L in
  List.iter
    (fun p ->
      let scale = 1.0 /. (1.0 -. p) in
      for trial = 0 to 39 do
        let state = Prng.next_int64 prng in
        let e0 = Prng.int prng ~bound:1_000_000 in
        let n = (trial mod 8) + Prng.int prng ~bound:300 in
        let at = Prng.int prng ~bound:4 in
        let dst = Array.make (at + n + 2) (-7.0) in
        Prng.keep_fill dst ~at ~n state ~e0 ~p ~scale;
        Array.iteri
          (fun i got ->
            let expect =
              if i >= at && i < at + n then
                Prng.keep_at state (e0 + i - at) ~p ~scale
              else -7.0
            in
            if not (Float.equal got expect) then
              Alcotest.failf
                "p=%h state=%Ld e0=%d n=%d: element %d is %h, keep_at %h" p
                state e0 n i got expect)
          dst
      done)
    [ 1e-9; 0.1; 1.0 /. 3.0; 0.5; 0.999; 0.0 ]

(* At p equal to a draw's own unit float the draw is kept (the comparison
   is strict), and one float above it is dropped: the integer threshold
   sits exactly where keep_at's float comparison does. *)
let test_prng_keep_fill_edges () =
  let state = 0x0123456789ABCDEFL in
  let walk = Prng.create state in
  for i = 0 to 199 do
    let u = Prng.float walk in
    List.iter
      (fun (p, kept) ->
        let d = [| nan |] in
        Prng.keep_fill d ~at:0 ~n:1 state ~e0:i ~p ~scale:2.0;
        let expect = Prng.keep_at state i ~p ~scale:2.0 in
        check_bool (Printf.sprintf "draw %d at p=%h" i p) true
          (Float.equal d.(0) expect
          && Float.equal d.(0) (if kept then 2.0 else 0.0)))
      [ (u, true); (Float.succ u, false); (Float.pred u, true) ]
  done;
  (* a NaN rate drops nothing, as keep_at's comparison does *)
  let d = Array.make 16 0.0 in
  Prng.keep_fill d ~at:0 ~n:16 state ~e0:0 ~p:nan ~scale:1.5;
  check_bool "nan p keeps all" true (Array.for_all (Float.equal 1.5) d);
  Alcotest.check_raises "range checked"
    (Invalid_argument "Prng.keep_fill: range out of bounds") (fun () ->
      Prng.keep_fill d ~at:10 ~n:7 state ~e0:0 ~p:0.5 ~scale:2.0)

(* ---------------- Fmath.exp ---------------- *)

(* Distance in units in the last place between two finite non-negative
   floats (exp's range): the difference of their bit patterns. *)
let ulps a b =
  Int64.abs (Int64.sub (Int64.bits_of_float a) (Int64.bits_of_float b))

(* The in-tree exp is within 1 ulp of glibc's (correctly rounded) exp
   over its whole finite range, subnormal results included. *)
let test_exp_ulp_bound () =
  let prng = Prng.create 59L in
  let worst = ref 0L and at = ref 0.0 in
  let check x =
    let u = ulps (Fmath.exp x) (Stdlib.exp x) in
    if u > !worst then begin
      worst := u;
      at := x
    end
  in
  let span lo hi n =
    for _ = 1 to n do
      check (Prng.uniform prng ~lo ~hi)
    done
  in
  span (-745.2) 709.78 200_000;
  span (-40.0) 0.0 100_000 (* softmax arguments *);
  span (-745.2) (-708.0) 50_000 (* subnormal results *);
  span (-1e-6) 1e-6 10_000;
  List.iter check
    [ 512.0; -512.0; Float.pred 512.0; Float.pred (-512.0); 1e-300; -1e-300;
      4.9e-324; 709.782712893384; -708.3964185322641; -745.1332191019411 ];
  check_bool
    (Printf.sprintf "max %Ld ulp from libm (at %h) <= 1" !worst !at)
    true (!worst <= 1L)

let test_exp_edges () =
  let is v x = Float.equal (Fmath.exp x) v in
  check_bool "exp -inf = 0" true (is 0.0 neg_infinity);
  check_bool "exp +inf = inf" true (is infinity infinity);
  check_bool "exp nan is nan" true (Float.is_nan (Fmath.exp nan));
  check_bool "exp 0 = 1" true (is 1.0 0.0);
  check_bool "exp -0 = 1" true (is 1.0 (-0.0));
  let top = 709.782712893384 in
  check_bool "exp 709.782712893384 is finite" true
    (Float.is_finite (Fmath.exp top) && Fmath.exp top > 1e308);
  check_bool "just above it overflows" true (is infinity (Float.succ top));
  check_bool "exp 710 = inf" true (is infinity 710.0);
  (* the subnormal range is rounded, not flushed *)
  List.iter
    (fun x ->
      let y = Fmath.exp x in
      check_bool
        (Printf.sprintf "exp %g = %h is subnormal, within 1 ulp of libm" x y)
        true
        (y > 0.0 && y < Float.min_float && ulps y (Stdlib.exp x) <= 1L))
    [ -708.5; -720.0; -730.0; -740.0; -745.0; -745.13 ];
  check_bool "below -745.14 underflows to 0" true (is 0.0 (-745.14));
  check_bool "exp -1000 = 0" true (is 0.0 (-1000.0))

(* The 4-lane array form runs the scalar form's operations per lane:
   bitwise equal at every length mod 4 and every offset, with special
   lanes (inf, NaN, overflow, subnormal results) mixed into groups. *)
let test_exp_array_equals_scalar () =
  let prng = Prng.create 61L in
  let pick i =
    match i mod 17 with
    | 3 -> neg_infinity
    | 5 -> 600.0
    | 7 -> -730.0
    | 11 -> nan
    | 13 -> -1e9
    | 14 -> infinity
    | 16 -> 2000.0
    | _ -> Prng.uniform prng ~lo:(-60.0) ~hi:10.0
  in
  for len = 0 to 17 do
    for off = 0 to 4 do
      let a = Array.init (off + len + 3) (fun i -> pick (i + len)) in
      let b = Array.copy a in
      Fmath.exp_inplace a ~off ~n:len;
      Array.iteri
        (fun i x ->
          let want = if i >= off && i < off + len then Fmath.exp x else x in
          if Int64.bits_of_float want <> Int64.bits_of_float a.(i) then
            Alcotest.failf "len %d off %d: element %d (exp %h) is %h, scalar %h"
              len off i x a.(i) want)
        b
    done
  done;
  (* one long array, so that lanes whose last rounding step is rarely
     decisive are sampled often enough *)
  let n = 200_000 in
  let a =
    Array.init n (fun i ->
        if i mod 50 = 0 then pick i
        else Prng.uniform prng ~lo:(-745.0) ~hi:709.0)
  in
  let b = Array.copy a in
  Fmath.exp_inplace a ~off:0 ~n;
  let bad = ref 0 in
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float (Fmath.exp x) <> Int64.bits_of_float a.(i) then
        incr bad)
    b;
  check_bool (Printf.sprintf "%d of %d lanes differ from the scalar exp" !bad n)
    true (!bad = 0)

(* ---------------- Half ---------------- *)

let test_half_landmarks () =
  check_float "one" 1.0 (Half.round 1.0);
  check_float "max" 65504.0 (Half.round 65504.0);
  check_bool "65520 overflows to inf" true (Half.round 65520.0 = infinity);
  check_float "just below rounds down" 65504.0 (Half.round 65519.0);
  check_float "epsilon spacing" (1.0 +. Half.epsilon) (Half.round (1.0 +. Half.epsilon));
  check_float "ties to even at 1+eps/2" 1.0 (Half.round (1.0 +. (Half.epsilon /. 2.0)));
  check_float "min normal" Half.min_positive_normal
    (Half.round Half.min_positive_normal);
  check_float "min subnormal" Half.min_positive_subnormal
    (Half.round Half.min_positive_subnormal);
  check_float "below min subnormal underflows" 0.0
    (Half.round (Half.min_positive_subnormal /. 3.0));
  check_bool "nan preserved" true (Float.is_nan (Half.round Float.nan));
  check_bool "inf preserved" true (Half.round infinity = infinity);
  check_bool "neg inf" true (Half.round neg_infinity = neg_infinity);
  check_bool "neg zero sign" true (1.0 /. Half.round (-0.0) = neg_infinity)

let test_half_bit_helpers () =
  check_bool "nan bits" true (Half.is_nan 0x7E00);
  check_bool "inf bits" true (Half.is_infinite 0x7C00);
  check_bool "neg inf bits" true (Half.is_infinite 0xFC00);
  check_bool "one not nan" false (Half.is_nan 0x3C00)

let test_half_roundtrip_all_finite () =
  (* every finite 16-bit pattern must decode/encode to itself *)
  let checked = ref 0 in
  for bits = 0 to 0xFFFF do
    if not (Half.is_nan bits) then begin
      let v = Half.to_float bits in
      if Float.is_finite v || Half.is_infinite bits then begin
        let bits' = Half.of_float v in
        if bits' <> bits then
          Alcotest.failf "half roundtrip: %04x -> %g -> %04x" bits v bits';
        incr checked
      end
    end
  done;
  check_bool "covered most patterns" true (!checked > 63000)

let test_half_monotone_rounding () =
  (* rounding error bounded by half ULP for normals *)
  let p = Prng.create 99L in
  for _ = 1 to 1000 do
    let v = Prng.uniform p ~lo:(-1000.0) ~hi:1000.0 in
    let r = Half.round v in
    let ulp = Float.abs v *. Half.epsilon in
    check_bool "error within ulp" true (Float.abs (r -. v) <= Float.max ulp 1e-7)
  done

(* ---------------- Dense ---------------- *)

let dims_bji = [ ("b", 2); ("j", 3); ("i", 4) ]

let seq_tensor dims =
  let n = ref 0.0 in
  Dense.init dims (fun _ ->
      n := !n +. 1.0;
      !n)

let test_dense_init_get () =
  let t = Dense.init dims_bji (fun idx ->
      float_of_int ((100 * List.assoc "b" idx) + (10 * List.assoc "j" idx) + List.assoc "i" idx))
  in
  check_float "get" 123.0 (Dense.get t [ ("b", 1); ("j", 2); ("i", 3) ]);
  check_float "get reordered idx" 123.0 (Dense.get t [ ("i", 3); ("b", 1); ("j", 2) ]);
  Dense.set t [ ("b", 0); ("j", 0); ("i", 0) ] 7.5;
  check_float "set" 7.5 (Dense.get t [ ("b", 0); ("j", 0); ("i", 0) ])

let test_dense_permute () =
  let t = seq_tensor dims_bji in
  let p = Dense.permute t [ "i"; "b"; "j" ] in
  check_bool "semantics preserved" true (Dense.approx_equal t p);
  Alcotest.(check (list string)) "layout" [ "i"; "b"; "j" ] (Dense.layout p);
  (* values physically moved *)
  check_float "element preserved" (Dense.get t [ ("b", 1); ("j", 2); ("i", 3) ])
    (Dense.get p [ ("b", 1); ("j", 2); ("i", 3) ])

let test_dense_bcast () =
  let t = Dense.full dims_bji 1.0 in
  let bias = Dense.init [ ("i", 4) ] (fun idx -> float_of_int (List.assoc "i" idx)) in
  let r = Dense.add_bcast t bias in
  check_float "bias broadcast" 4.0 (Dense.get r [ ("b", 1); ("j", 1); ("i", 3) ]);
  let m = Dense.mul_bcast t bias in
  check_float "mul broadcast" 2.0 (Dense.get m [ ("b", 0); ("j", 2); ("i", 2) ])

let test_dense_reduce () =
  let t = seq_tensor dims_bji in
  let s = Dense.sum_over t [ "i" ] in
  Alcotest.(check (list string)) "axes after reduce" [ "b"; "j" ] (Dense.axes s);
  (* first row: 1+2+3+4 = 10 *)
  check_float "sum" 10.0 (Dense.get s [ ("b", 0); ("j", 0) ]);
  let mx = Dense.max_over t [ "b"; "j"; "i" ] in
  check_float "max all" 24.0 (Dense.item mx);
  check_float "sum all" 300.0 (Dense.sum_all t);
  let mean = Dense.mean_over t [ "i" ] in
  check_float "mean" 2.5 (Dense.get mean [ ("b", 0); ("j", 0) ]);
  let rb = Dense.reduce_bcast t [ "i" ] in
  check_float "reduce_bcast keeps i" (1.0 +. 5.0 +. 9.0 +. 13.0 +. 17.0 +. 21.0)
    (Dense.get rb [ ("i", 0) ])

(* Reductions of a permuted-layout tensor over its leading, middle and
   trailing storage axes (and the outer two together), each bitwise equal
   to a reference that folds the elements into their cells in storage
   order. *)
let test_dense_reduce_layouts () =
  let prng = Prng.create 29L in
  let t =
    Dense.permute
      (Dense.rand prng [ ("b", 6); ("j", 9); ("i", 5) ] ~lo:(-2.0) ~hi:2.0)
      [ "j"; "i"; "b" ]
  in
  let reference ~init ~op red =
    let kept idx = List.filter (fun (a, _) -> not (List.mem a red)) idx in
    let r = Dense.full (kept (Shape.to_list (Dense.shape t))) init in
    Dense.iter t (fun idx v ->
        let cell = kept idx in
        Dense.set r cell (op (Dense.get r cell) v));
    r
  in
  let bitwise name expect got =
    check_bool name true
      (Dense.layout got = Dense.layout expect
      && Array.for_all2 Float.equal (Dense.unsafe_data expect)
           (Dense.unsafe_data got))
  in
  List.iter
    (fun red ->
      let tag = String.concat "," red in
      bitwise ("sum_over " ^ tag)
        (reference ~init:0.0 ~op:( +. ) red)
        (Dense.sum_over t red);
      bitwise ("max_over " ^ tag)
        (reference ~init:neg_infinity ~op:Float.max red)
        (Dense.max_over t red);
      bitwise ("reduce_bcast " ^ tag)
        (reference ~init:0.0 ~op:( +. ) red)
        (Dense.reduce_bcast t (Axis.diff (Dense.axes t) red)))
    [ [ "j" ]; [ "i" ]; [ "b" ]; [ "j"; "b" ] ]

let test_dense_map2_alignment () =
  let t = seq_tensor dims_bji in
  let p = Dense.permute t [ "i"; "j"; "b" ] in
  let sum = Dense.add t p in
  check_bool "t + permuted t = 2t" true
    (Dense.approx_equal sum (Dense.scale 2.0 t))

let test_dense_rename () =
  let t = seq_tensor dims_bji in
  let r = Dense.rename_axes t [ ("j", "k") ] in
  Alcotest.(check (list string)) "renamed" [ "b"; "k"; "i" ] (Dense.axes r);
  check_float "data untouched" (Dense.get t [ ("b", 1); ("j", 1); ("i", 1) ])
    (Dense.get r [ ("b", 1); ("k", 1); ("i", 1) ])

(* ---------------- Einsum ---------------- *)

let test_einsum_parse () =
  let spec = Einsum.parse "phi,ibj->phbj" in
  check_int "operands" 2 (List.length spec.Einsum.operands);
  Alcotest.(check (list string)) "result" [ "p"; "h"; "b"; "j" ] spec.Einsum.result;
  Alcotest.(check string) "roundtrip" "phi,ibj->phbj" (Einsum.spec_to_string spec);
  check_bool "missing arrow" true
    (try
       ignore (Einsum.parse "abc");
       false
     with Invalid_argument _ -> true)

let test_einsum_matmul () =
  let a = Dense.init [ ("m", 2); ("k", 3) ] (fun idx ->
      float_of_int ((10 * List.assoc "m" idx) + List.assoc "k" idx))
  in
  let b = Dense.init [ ("k", 3); ("n", 2) ] (fun idx ->
      float_of_int ((List.assoc "k" idx * 2) + List.assoc "n" idx))
  in
  let c = Einsum.eval "mk,kn->mn" [ a; b ] in
  (* manual: c[m][n] = sum_k a[m][k] * b[k][n] *)
  let manual m n =
    let acc = ref 0.0 in
    for k = 0 to 2 do
      acc := !acc
        +. Dense.get a [ ("m", m); ("k", k) ] *. Dense.get b [ ("k", k); ("n", n) ]
    done;
    !acc
  in
  for m = 0 to 1 do
    for n = 0 to 1 do
      check_float "matmul" (manual m n) (Dense.get c [ ("m", m); ("n", n) ])
    done
  done

let test_einsum_scale_and_flops () =
  let a = Dense.full [ ("m", 2); ("k", 2) ] 1.0 in
  let b = Dense.full [ ("k", 2); ("n", 2) ] 1.0 in
  let c = Einsum.eval ~scale:0.5 "mk,kn->mn" [ a; b ] in
  check_float "scaled" 1.0 (Dense.get c [ ("m", 0); ("n", 0) ]);
  let spec = Einsum.parse "mk,kn->mn" in
  let size = function "m" -> 2 | "n" -> 3 | "k" -> 4 | _ -> 1 in
  check_int "flops 2mnk" (2 * 2 * 3 * 4) (Einsum.flops spec ~size);
  check_int "io" ((2 * 4) + (4 * 3) + (2 * 3)) (Einsum.io_elements spec ~size)

let test_einsum_layout_invariance () =
  let prng = Prng.create 17L in
  let a = Dense.rand prng [ ("p", 3); ("h", 2); ("i", 4) ] ~lo:(-1.0) ~hi:1.0 in
  let x = Dense.rand prng [ ("i", 4); ("b", 2); ("j", 3) ] ~lo:(-1.0) ~hi:1.0 in
  let base = Einsum.eval "phi,ibj->phbj" [ a; x ] in
  List.iter
    (fun layout ->
      let x' = Dense.permute x layout in
      let r = Einsum.eval "phi,ibj->phbj" [ a; x' ] in
      check_bool "layout does not change einsum" true (Dense.approx_equal base r))
    (Layout.all [ "i"; "b"; "j" ])

let test_einsum_validation () =
  let a = Dense.full [ ("m", 2); ("k", 2) ] 1.0 in
  let b = Dense.full [ ("k", 3); ("n", 2) ] 1.0 in
  check_bool "size mismatch" true
    (try
       ignore (Einsum.eval "mk,kn->mn" [ a; b ]);
       false
     with Invalid_argument _ -> true);
  check_bool "operand count" true
    (try
       ignore (Einsum.eval "mk,kn->mn" [ a ]);
       false
     with Invalid_argument _ -> true)

(* naive reference for property testing: independent implementation *)
let naive_contract inputs ~out =
  let sizes = Hashtbl.create 8 in
  List.iter
    (fun t ->
      List.iter (fun (a, d) -> Hashtbl.replace sizes a d) (Shape.to_list (Dense.shape t)))
    inputs;
  let all_axes =
    List.fold_left (fun acc t -> Axis.union acc (Dense.axes t)) [] inputs
  in
  let red = Axis.diff all_axes out in
  let result = Dense.zeros (List.map (fun a -> (a, Hashtbl.find sizes a)) out) in
  let rec loop axes idx =
    match axes with
    | [] ->
        let term =
          List.fold_left
            (fun acc t ->
              let sub = List.filter (fun (a, _) -> List.mem a (Dense.axes t)) idx in
              acc *. Dense.get t sub)
            1.0 inputs
        in
        let out_idx = List.filter (fun (a, _) -> List.mem a out) idx in
        Dense.set result out_idx (Dense.get result out_idx +. term)
    | a :: rest ->
        for v = 0 to Hashtbl.find sizes a - 1 do
          loop rest ((a, v) :: idx)
        done
  in
  loop (out @ red) [];
  result

let prop_einsum_vs_naive =
  QCheck.Test.make ~name:"einsum agrees with naive triple loop" ~count:40
    QCheck.(triple (int_range 1 3) (int_range 1 3) (int_range 1 3))
    (fun (m, n, k) ->
      let prng = Prng.create (Int64.of_int ((m * 100) + (n * 10) + k)) in
      let a = Dense.rand prng [ ("m", m); ("k", k) ] ~lo:(-2.0) ~hi:2.0 in
      let b = Dense.rand prng [ ("k", k); ("n", n) ] ~lo:(-2.0) ~hi:2.0 in
      let fast = Einsum.contract [ a; b ] ~out:[ "m"; "n" ] in
      let slow = naive_contract [ a; b ] ~out:[ "m"; "n" ] in
      Dense.approx_equal ~rtol:1e-9 ~atol:1e-9 fast slow)

let prop_permute_roundtrip =
  QCheck.Test.make ~name:"permute roundtrips through any layout" ~count:50
    QCheck.(pair (int_range 1 4) (int_range 0 5))
    (fun (size, perm_idx) ->
      let dims = [ ("a", size); ("b", 2); ("c", 3) ] in
      let prng = Prng.create (Int64.of_int (size + perm_idx)) in
      let t = Dense.rand prng dims ~lo:(-1.0) ~hi:1.0 in
      let layouts = Layout.all [ "a"; "b"; "c" ] in
      let l = List.nth layouts (perm_idx mod List.length layouts) in
      let back = Dense.permute (Dense.permute t l) (Dense.layout t) in
      Dense.approx_equal t back)

(* Random walker inputs from one seed: dims of rank 0-5 with sizes 1-7,
   1-3 stride sets (each either the canonical row-major strides, so axes
   merge, or random strides in 0-9) and a range [lo, hi) of positions. *)
let walker_case seed =
  let st = Random.State.make [| seed |] in
  let n = Random.State.int st 6 in
  let dims = Array.init n (fun _ -> 1 + Random.State.int st 7) in
  let total = Array.fold_left ( * ) 1 dims in
  let canon = Array.make n 1 in
  for d = n - 2 downto 0 do
    canon.(d) <- canon.(d + 1) * dims.(d + 1)
  done;
  let set _ =
    if Random.State.bool st then Array.copy canon
    else Array.init n (fun _ -> Random.State.int st 10)
  in
  let sets = Array.init (1 + Random.State.int st 3) set in
  let lo = Random.State.int st (total + 1) in
  let hi = lo + Random.State.int st (total - lo + 1) in
  (dims, sets, lo, hi)

(* [iter_runs] visits exactly the (position, offsets) sequence of a
   from-scratch div/mod enumeration of [lo, hi). *)
let prop_iter_runs_enumeration =
  QCheck.Test.make ~name:"iter_runs matches a div/mod enumeration" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let dims, sets, lo, hi = walker_case seed in
      let n = Array.length dims in
      let reference =
        List.init (hi - lo) (fun i ->
            let rem = ref (lo + i) and offs = Array.make (Array.length sets) 0 in
            for d = n - 1 downto 0 do
              let x = !rem mod dims.(d) in
              rem := !rem / dims.(d);
              Array.iteri (fun s st -> offs.(s) <- offs.(s) + (x * st.(d))) sets
            done;
            (lo + i, offs))
      in
      let seen = ref [] in
      Dense.iter_runs dims sets ~lo ~hi (fun k offs run ->
          for q = 0 to run - 1 do
            let at s st = offs.(s) + if n = 0 then 0 else q * st.(n - 1) in
            seen := (lo + k + q, Array.mapi at sets) :: !seen
          done);
      List.rev !seen = reference)

(* [add_bcast]/[mul_bcast] of a randomly laid-out [t] and a [b] over a
   random subset of its axes, in random order, equal an element-by-element
   reference through [Dense.get], bitwise. *)
let prop_bcast_any_layout =
  QCheck.Test.make ~name:"bcast over any layouts equals get reference"
    ~count:200 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let shuffle l =
        List.map snd
          (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))
      in
      let dims =
        shuffle
          (List.filteri
             (fun _ _ -> Random.State.int st 4 > 0)
             [ ("a", 2); ("b", 3); ("c", 1); ("d", 4); ("e", 5) ])
      in
      let prng = Prng.create (Int64.of_int seed) in
      let t = Dense.rand prng dims ~lo:(-2.0) ~hi:2.0 in
      let b_dims =
        shuffle (List.filter (fun _ -> Random.State.bool st) dims)
      in
      let b = Dense.rand prng b_dims ~lo:(-2.0) ~hi:2.0 in
      let bits = Int64.bits_of_float in
      List.for_all
        (fun (op, f) ->
          let r = op t b in
          let ok = ref true in
          Dense.iter t (fun idx v ->
              let bidx = List.filter (fun (a, _) -> Shape.mem b.shape a) idx in
              if bits (Dense.get r idx) <> bits (f v (Dense.get b bidx)) then
                ok := false);
          !ok)
        [ (Dense.add_bcast, ( +. )); (Dense.mul_bcast, ( *. )) ])

(* Layout changes and broadcasts move data with no per-element boxing or
   closure: on a 16,384-float tensor each call allocates under 1,000 minor
   words (mean of 100 calls; the data array itself is a major-heap
   block). *)
let test_dense_allocation_budget () =
  let prng = Prng.create 43L in
  let t = Dense.rand prng [ ("i", 64); ("b", 4); ("j", 64) ] ~lo:(-1.0) ~hi:1.0 in
  let vec dims = Dense.rand prng dims ~lo:(-1.0) ~hi:1.0 in
  let per_call name f =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      f ()
    done;
    let w = (Gc.minor_words () -. before) /. 100.0 in
    check_bool (Printf.sprintf "%s: %.0f minor words/call < 1000" name w) true
      (w < 1000.0)
  in
  per_call "permute (j,i,b)" (fun () -> ignore (Dense.permute t [ "j"; "i"; "b" ]));
  per_call "permute (b,i,j)" (fun () -> ignore (Dense.permute t [ "b"; "i"; "j" ]));
  List.iter
    (fun dims ->
      let b = vec dims in
      let name = String.concat "," (List.map fst dims) in
      per_call ("add_bcast " ^ name) (fun () -> ignore (Dense.add_bcast t b));
      per_call ("mul_bcast " ^ name) (fun () -> ignore (Dense.mul_bcast t b)))
    [ [ ("b", 4); ("j", 64) ]; [ ("i", 64) ]; [ ("j", 64); ("i", 64) ] ]

let prop_half_roundtrip_stable =
  QCheck.Test.make ~name:"half rounding is idempotent" ~count:200
    QCheck.(float_range (-70000.0) 70000.0)
    (fun v ->
      let r = Half.round v in
      (Float.is_nan r && Float.is_nan (Half.round r)) || Half.round r = r)

(* ---------------- Autodiff_check ---------------- *)

let test_numerical_gradient () =
  let x = Dense.init [ ("a", 3) ] (fun idx -> float_of_int (List.assoc "a" idx + 1)) in
  let f t = Dense.sum_all (Dense.mul t t) in
  let g = Autodiff_check.numerical_gradient ~f x in
  (* d/dx sum x^2 = 2x *)
  check_bool "2x" true
    (Dense.approx_equal ~rtol:1e-5 ~atol:1e-5 g (Dense.scale 2.0 x));
  let ok, err = Autodiff_check.check ~f ~grad:(Dense.scale 2.0 x) x in
  check_bool "check passes" true ok;
  check_bool "small error" true (err < 1e-5)

let test_scalarize () =
  let prng = Prng.create 4L in
  let f, w = Autodiff_check.scalarize prng [ ("a", 4) ] in
  let y = Dense.init [ ("a", 4) ] (fun idx -> float_of_int (List.assoc "a" idx)) in
  check_float "linear functional" (Dense.sum_all (Dense.mul y w)) (f y)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "tensor"
    [
      ( "axis",
        [
          Alcotest.test_case "validate" `Quick test_axis_validate;
          Alcotest.test_case "set operations" `Quick test_axis_sets;
        ] );
      ( "shape",
        [
          Alcotest.test_case "basics" `Quick test_shape_basic;
          Alcotest.test_case "errors" `Quick test_shape_errors;
          Alcotest.test_case "reorder/drop" `Quick test_shape_reorder;
        ] );
      ( "layout",
        [
          Alcotest.test_case "enumeration" `Quick test_layout_all;
          Alcotest.test_case "operations" `Quick test_layout_ops;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian;
          Alcotest.test_case "bernoulli rate" `Quick test_prng_bernoulli;
          Alcotest.test_case "keep_fill equals the keep_at loop" `Quick
            test_prng_keep_fill;
          Alcotest.test_case "keep_fill threshold edges" `Quick
            test_prng_keep_fill_edges;
        ] );
      ( "fmath",
        [
          Alcotest.test_case "exp within 1 ulp of libm" `Quick
            test_exp_ulp_bound;
          Alcotest.test_case "exp edges" `Quick test_exp_edges;
          Alcotest.test_case "array exp equals scalar exp" `Quick
            test_exp_array_equals_scalar;
        ] );
      ( "half",
        [
          Alcotest.test_case "landmarks" `Quick test_half_landmarks;
          Alcotest.test_case "bit helpers" `Quick test_half_bit_helpers;
          Alcotest.test_case "all finite patterns roundtrip" `Quick
            test_half_roundtrip_all_finite;
          Alcotest.test_case "rounding error bounded" `Quick
            test_half_monotone_rounding;
          q prop_half_roundtrip_stable;
        ] );
      ( "dense",
        [
          Alcotest.test_case "init/get/set" `Quick test_dense_init_get;
          Alcotest.test_case "permute" `Quick test_dense_permute;
          Alcotest.test_case "broadcast" `Quick test_dense_bcast;
          Alcotest.test_case "reductions" `Quick test_dense_reduce;
          Alcotest.test_case "reductions over permuted layouts" `Quick
            test_dense_reduce_layouts;
          Alcotest.test_case "map2 aligns layouts" `Quick test_dense_map2_alignment;
          Alcotest.test_case "rename axes" `Quick test_dense_rename;
          Alcotest.test_case "allocation budget" `Quick test_dense_allocation_budget;
          q prop_permute_roundtrip;
          q prop_iter_runs_enumeration;
          q prop_bcast_any_layout;
        ] );
      ( "einsum",
        [
          Alcotest.test_case "parse" `Quick test_einsum_parse;
          Alcotest.test_case "matmul" `Quick test_einsum_matmul;
          Alcotest.test_case "scale and flop counts" `Quick test_einsum_scale_and_flops;
          Alcotest.test_case "layout invariance" `Quick test_einsum_layout_invariance;
          Alcotest.test_case "validation" `Quick test_einsum_validation;
          q prop_einsum_vs_naive;
        ] );
      ( "autodiff",
        [
          Alcotest.test_case "numerical gradient" `Quick test_numerical_gradient;
          Alcotest.test_case "scalarize" `Quick test_scalarize;
        ] );
    ]

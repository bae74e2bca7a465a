let numerical_gradient ?(eps = 1e-5) ~f x =
  let grad = Dense.copy x in
  let data = Dense.unsafe_data x in
  let out = Dense.unsafe_data grad in
  for i = 0 to Array.length data - 1 do
    let saved = data.(i) in
    data.(i) <- saved +. eps;
    let fp = f x in
    data.(i) <- saved -. eps;
    let fm = f x in
    data.(i) <- saved;
    out.(i) <- (fp -. fm) /. (2.0 *. eps)
  done;
  grad

let check ?eps ?(tol = 1e-4) ~f ~grad x =
  let numeric = numerical_gradient ?eps ~f x in
  let err = Dense.max_abs_diff numeric grad in
  (err <= tol, err)

let scalarize prng dims =
  let w = Dense.rand prng dims ~lo:(-1.0) ~hi:1.0 in
  let f y = Dense.sum_all (Dense.mul (Dense.align y w) w) in
  (f, w)

let stddev = 0.02

let dims_of hp name =
  match List.assoc_opt name (Encoder.containers hp) with
  | Some dims -> dims
  | None -> invalid_arg ("Params.dims_of: unknown parameter " ^ name)

let init (hp : Hparams.t) =
  let prng = Prng.of_key hp.seed "params" in
  List.map
    (fun name ->
      let dims = dims_of hp name in
      let value =
        if String.length name >= 2 && String.sub name 0 2 = "ln" then
          (* ln*_g starts at one, ln*_b at zero *)
          if name.[String.length name - 1] = 'g' then Dense.full dims 1.0
          else Dense.zeros dims
        else if name.[0] = 'b' then Dense.zeros dims
        else Dense.randn prng dims ~stddev
      in
      (* The out-projection "whi,whbj->ibj" reads wo in place as (i,w,h). *)
      let value =
        if name = "wo" then Dense.permute value [ "i"; "w"; "h" ] else value
      in
      (name, value))
    Encoder.param_names

let random_input (hp : Hparams.t) prng =
  Dense.randn prng (Hparams.dims_x hp) ~stddev:1.0

let random_cotangent (hp : Hparams.t) prng =
  Dense.randn prng (Hparams.dims_x hp) ~stddev:1.0

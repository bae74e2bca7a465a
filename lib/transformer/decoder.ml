let program ?variant hp =
  Encoder.program_with ?variant ~activation:`Gelu ~causal:true hp

let run hp ~x ~d_y ~params =
  Ops.Program.run (program hp) (("x", x) :: ("d_y", d_y) :: params)

let kernel_names = Encoder.kernel_names

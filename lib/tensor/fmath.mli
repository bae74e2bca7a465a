(** The library's [exp].

    Every [exp] of the numeric library (the softmax kernels and oracles,
    sigmoid, the training loss) is this one, so paths that are compared
    bitwise share one recipe. It is a C kernel (elt_stubs.c) in the scheme
    of glibc's [exp]: [exp x = 2^(k/128) * exp r] with a 128-entry table
    and a degree-5 polynomial on [|r| <= ln2/256], computed without fused
    multiply-adds. It is within 1 ulp of a correctly rounded [exp] from
    -745.2 to 709.78 (subnormal results included, not flushed to zero);
    [exp neg_infinity = 0.0], [exp infinity = infinity], NaN gives NaN,
    and [exp 0.0 = exp (-0.0) = 1.0]. Results are not libm's bits: they
    differ from glibc's in the last place on some inputs. *)

external exp : float -> float = "substation_exp_byte" "substation_exp"
[@@unboxed] [@@noalloc]
(** [exp x]: the scalar form, an unboxed [noalloc] external (one direct
    C call, like [Stdlib.exp]). It is declared [external] here, not
    [val]: under [-opaque] a [val] is called through a closure that boxes
    the argument and the result. *)

val exp_inplace : float array -> off:int -> n:int -> unit
(** [exp_inplace a ~off ~n] replaces [a.(off) .. a.(off + n - 1)] by
    their [exp]. Groups of four run as one 4-lane vector (AVX2 on x86-64,
    where the CPU has it) that computes the same operations per lane as
    {!exp}, so the result is bitwise [a.(i) <- exp a.(i)] at every
    length and offset. Raises [Invalid_argument] on a range outside
    [a]. *)

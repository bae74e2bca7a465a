(** Structural program fingerprints for the plan cache.

    [of_program p] digests everything that determines [p]'s semantics and
    compilation decisions: containers, op names / classes / reads /
    writes, iteration spaces, flops, GEMM roles, backward flags, and the
    full declarative [Op.sem] (dropout probabilities, seeds, and stream
    keys included). Programs with equal fingerprints are semantically
    interchangeable even when their [run] closures are distinct physical
    values, so a rebuilt program that is compiled again (perfbench's
    per-step encoder compile, every [Executor.run]) hits the plan of the
    first build. *)

val of_program : Ops.Program.t -> string

(** The pre-digest rendering (debugging aid: two programs that should hit
    the same cache entry but don't can be diffed through this). *)
val render : Ops.Program.t -> string

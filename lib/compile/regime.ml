(* A compilation regime: what the passes read besides the program. The
   backend mode, domain count and guard level are not part of it — the
   kernels read those at run time, so one plan serves every execution
   mode. *)

type t = { keep : string list  (* containers the caller reads from the env *) }

let current ?(keep = []) () = { keep }
let key t = "keep=" ^ String.concat "," t.keep

(* A compilation regime: what the passes read besides the program. The
   backend mode, domain count and guard level are not part of it — the
   kernels read those at run time, so one plan serves every execution
   mode. *)

type t = {
  attention : bool;  (* recognize streaming-attention windows *)
  keep : string list;  (* containers the caller reads from the env *)
}

let current ?(attention = true) ?(keep = []) () = { attention; keep }

let key t =
  Printf.sprintf "attn=%b;keep=%s" t.attention (String.concat "," t.keep)

(* One row of a plan's pass trace, and the allocate-everything peak the
   rows before memory planning report. *)

type stat = {
  st_pass : string;
  st_ops_before : int;
  st_ops_after : int;
  st_peak_floats : int;  (* allocate-everything resident set after the pass;
                            from memory planning on, the planned peak *)
  st_elapsed : float;  (* seconds spent in the rewrite *)
  st_note : string;  (* pass-specific: windows found, peak drop, ... *)
}

(* Allocate-everything resident set: every declared container some op
   reads or writes, materialized simultaneously. *)
let naive_peak_floats (p : Ops.Program.t) =
  let touched = Hashtbl.create 64 in
  List.iter
    (fun (o : Ops.Op.t) ->
      List.iter (fun c -> Hashtbl.replace touched c ()) (o.reads @ o.writes))
    p.Ops.Program.ops;
  List.fold_left
    (fun acc (c, ds) ->
      if Hashtbl.mem touched c then
        acc + List.fold_left (fun v (_, n) -> v * n) 1 ds
      else acc)
    0 p.Ops.Program.containers

let pp_stat ppf s =
  Format.fprintf ppf "%-18s ops %3d -> %3d  peak %9d floats  %6.2f ms%s" s.st_pass
    s.st_ops_before s.st_ops_after s.st_peak_floats (s.st_elapsed *. 1000.)
    (if s.st_note = "" then "" else "  " ^ s.st_note)

(* The typed pass interface: a named rewrite over [Ops.Program.t],
   threaded through a mutable compilation context that accumulates the
   non-program plan artifacts (attention sites, the memory plan). *)

type stat = {
  st_pass : string;
  st_ops_before : int;
  st_ops_after : int;
  st_peak_floats : int;  (* allocate-everything resident set after the pass;
                            from memory planning on, the planned peak *)
  st_elapsed : float;  (* seconds spent in the rewrite *)
  st_note : string;  (* pass-specific: windows found, peak drop, ... *)
}

type ctx = {
  regime : Regime.t;
  name_table : (string list * string) list;
  mutable attn_sites : Substation.Fusion.attn_site list;
  mutable memplan : Ops.Memplan.t option;
  mutable note : string;  (* the running pass's [st_note] *)
  mutable peak_override : int option;  (* the planned peak once memory
                                          planning has run *)
}

let make_ctx ?(name_table = []) regime =
  {
    regime;
    name_table;
    attn_sites = [];
    memplan = None;
    note = "";
    peak_override = None;
  }

type t = {
  p_name : string;
  p_enabled : ctx -> bool;
  p_rewrite : ctx -> Ops.Program.t -> Ops.Program.t;
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

(* A compilation regime: the execution-environment half of the plan-cache
   key, plus the one switch that decides whether the program is rewritten
   at all. Fingerprint x regime identifies a plan completely — the same
   program compiled fast vs naive, serial vs parallel, or with different
   guard levels yields distinct cache entries (the regimes cannot share
   pass traces). *)

type t = {
  fast : bool;  (* fast CPU backend vs naive oracle *)
  domains : int;  (* effective worker domain count *)
  guard : Guard.level;  (* kernel-guard level installed at execute *)
  attention : bool;  (* recognize streaming-attention windows *)
  keep : string list;  (* containers the caller reads from the env *)
  rewrite : bool;  (* run the rewriting pipeline; false = passthrough *)
}

let current ?(attention = true) ?(keep = []) () =
  {
    fast = Fastmode.enabled ();
    domains = Pool.num_domains ();
    guard = Guard.current_level ();
    attention;
    keep;
    rewrite = true;
  }

let passthrough ?fast () =
  {
    fast = (match fast with Some b -> b | None -> Fastmode.enabled ());
    domains = Pool.num_domains ();
    guard = Guard.current_level ();
    attention = false;
    keep = [];
    rewrite = false;
  }

let key t =
  Printf.sprintf "fast=%b;dom=%d;guard=%s;attn=%b;rewrite=%b;keep=%s" t.fast
    t.domains
    (Guard.level_to_string t.guard)
    t.attention t.rewrite
    (String.concat "," t.keep)

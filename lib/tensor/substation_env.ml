(* Single parse point for every SUBSTATION_* environment toggle.

   Historically each subsystem read its own variable at module init
   (fastmode.ml, pool.ml, guard.ml) with
   subtly different parsers, and a typo — SUBSTATION_NAIVE=ture — was
   silently ignored. This module parses the whole environment once,
   records every malformed value as a warning (printed to stderr the
   first time any setting is consulted, and surfaced in [describe]),
   and hands the subsystems typed values.

   The parse is lazy-once: [Sys.getenv_opt] at first use, cached for the
   process. Scoped overrides (Fastmode.with_mode, Pool.with_domains,
   Guard.with_level) win over the environment. The settings are read at
   run time, so no compiled plan captures them: the backend mode by
   Guard.protected alone, the domain count by each parallel region, the
   guard level by the guard. *)

type guard_level = Off | Exceptions | Nan | Finite

let guard_level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "0" | "none" -> Some Off
  | "exn" | "exceptions" -> Some Exceptions
  | "nan" -> Some Nan
  | "finite" | "inf" -> Some Finite
  | _ -> None

let guard_level_to_string = function
  | Off -> "off"
  | Exceptions -> "exn"
  | Nan -> "nan"
  | Finite -> "finite"

type t = {
  naive : bool;  (* SUBSTATION_NAIVE: disable the fast CPU backend *)
  guard : guard_level option;  (* SUBSTATION_GUARD: kernel-guard level *)
  domains : int option;  (* SUBSTATION_DOMAINS: worker domain count *)
  warnings : string list;  (* malformed values, variable-labelled *)
}

let parse_bool ~var warnings s =
  match String.lowercase_ascii (String.trim s) with
  | "1" | "true" | "yes" | "on" -> (true, warnings)
  | "0" | "false" | "no" | "off" -> (false, warnings)
  | _ ->
      ( false,
        Printf.sprintf
          "%s=%S is not a boolean (want 1/true/yes/on or 0/false/no/off); \
           ignoring it"
          var s
        :: warnings )

let parse_guard ~var warnings s =
  match guard_level_of_string s with
  | Some _ as level -> (level, warnings)
  | None ->
      ( None,
        Printf.sprintf
          "%s=%S is not a guard level (want off|exn|nan|finite); using the \
           default"
          var s
        :: warnings )

let parse_domains ~var warnings s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 0 -> (Some n, warnings)
  | Some _ | None ->
      ( None,
        Printf.sprintf
          "%s=%S is not a non-negative integer; using the runtime's \
           recommended domain count"
          var s
        :: warnings )

let opt ~lookup ~var parse warnings default =
  match lookup var with
  | None -> (default, warnings)
  | Some s -> parse ~var warnings s

let retired =
  [
    ( "SUBSTATION_NOPLAN",
      "memory planning is no longer a process-wide switch (every compiled \
       plan is memory-planned)" );
    ( "SUBSTATION_ATTN_TILES",
      "streaming-attention tiles are no longer a setting (the kernel has \
       one mode: each row against its whole unmasked key prefix)" );
  ]

(* [parse_with lookup] parses from an arbitrary variable source — the
   whole parser as a pure function, so tests can exercise malformed
   values without touching the process environment. *)
let parse_with lookup =
  (* A retired variable still set in someone's shell must not pass for a
     working toggle. *)
  let w =
    List.filter_map
      (fun (var, why) ->
        Option.map
          (fun _ -> Printf.sprintf "%s is retired and ignored: %s" var why)
          (lookup var))
      retired
    |> List.rev
  in
  let naive, w = opt ~lookup ~var:"SUBSTATION_NAIVE" parse_bool w false in
  let guard, w = opt ~lookup ~var:"SUBSTATION_GUARD" parse_guard w None in
  let domains, w = opt ~lookup ~var:"SUBSTATION_DOMAINS" parse_domains w None in
  { naive; guard; domains; warnings = List.rev w }

let parse_environment () = parse_with Sys.getenv_opt

let warned = ref false

let cached =
  lazy
    (let t = parse_environment () in
     if t.warnings <> [] && not !warned then begin
       warned := true;
       List.iter
         (fun msg -> Printf.eprintf "substation: warning: %s\n%!" msg)
         t.warnings
     end;
     t)

let get () = Lazy.force cached

let naive () = (get ()).naive
let guard () = (get ()).guard
let domains () = (get ()).domains
let warnings () = (get ()).warnings

let describe () =
  let t = get () in
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "SUBSTATION_NAIVE   %-10s fast CPU backend %s"
    (if t.naive then "1" else "(unset)")
    (if t.naive then "DISABLED (naive oracle only)" else "enabled");
  line "SUBSTATION_GUARD   %-10s kernel-guard level %s"
    (match t.guard with
    | Some g -> guard_level_to_string g
    | None -> "(unset)")
    (match t.guard with
    | Some g -> guard_level_to_string g
    | None -> "exn (default)");
  line "SUBSTATION_DOMAINS %-10s worker domains %s"
    (match t.domains with Some n -> string_of_int n | None -> "(unset)")
    (match t.domains with
    | Some n -> string_of_int n
    | None -> "recommended count");
  List.iter (fun msg -> line "warning: %s" msg) t.warnings;
  Buffer.contents b

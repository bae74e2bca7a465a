(** The single parse point for every [SUBSTATION_*] environment toggle.

    Recognized variables:

    - [SUBSTATION_NAIVE] — boolean; disables the fast CPU backend so every
      kernel runs through the naive oracle ({!Fastmode}).
    - [SUBSTATION_GUARD] — [off|exn|nan|finite]; kernel-guard level
      ({!Guard}).
    - [SUBSTATION_DOMAINS] — non-negative integer; worker domain count
      ({!Pool}; 0 and 1 both mean serial).

    Booleans accept [1/true/yes/on] and [0/false/no/off],
    case-insensitively. A malformed value is {e never} silently ignored:
    it is recorded as a warning, printed once to stderr the first time any
    setting is consulted, and included in {!describe}'s dump. So is a
    retired variable that is still set ([SUBSTATION_NOPLAN]: memory
    planning is no longer a process-wide toggle; [SUBSTATION_ATTN_TILES]:
    the attention kernel has no tile setting). The environment is
    parsed once per process; scoped overrides ([Fastmode.with_mode],
    [Pool.with_domains], [Guard.with_level]) win over it. These
    settings are read at run time, never baked into a compiled plan. *)

(** The kernel-guard level, documented where {!Guard.level} re-exports it. *)
type guard_level = Off | Exceptions | Nan | Finite

(** Accepts the [SUBSTATION_GUARD] spellings, case-insensitively and
    trimmed: [off]/[0]/[none], [exn]/[exceptions], [nan], [finite]/[inf]. *)
val guard_level_of_string : string -> guard_level option

val guard_level_to_string : guard_level -> string

type t = {
  naive : bool;
  guard : guard_level option;
  domains : int option;
  warnings : string list;
}

(** The parsed environment (cached after the first call). *)
val get : unit -> t

(** [parse_with lookup] runs the full parse against an arbitrary variable
    source (no caching, no stderr) — the process environment never
    consulted. Lets tests exercise malformed values deterministically. *)
val parse_with : (string -> string option) -> t

val naive : unit -> bool
val guard : unit -> guard_level option
val domains : unit -> int option

(** Warnings for malformed values, in variable order. *)
val warnings : unit -> string list

(** Human-readable dump of every toggle: the raw setting, the effective
    value, and any parse warnings — what [substation_cli env] prints. *)
val describe : unit -> string

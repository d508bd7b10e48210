(** JSON values: a small total parser and the one printer behind the
    serving protocol and every [--json] report.  Parsing never raises —
    malformed input, over-deep nesting and truncated literals all come
    back as [Error] — because the serving tier feeds it bytes from an
    untrusted socket. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact one-line rendering.  Strings are escaped so the output never
    contains a raw newline or control byte; non-ASCII bytes pass through
    unchanged (the line framing is byte-oriented).  Non-finite numbers
    render as [null]: NaN must not escape into the protocol. *)
val to_string : t -> string

(** Parse one JSON value; trailing garbage after the value is an error.
    Nesting deeper than [max_depth] is rejected. *)
val parse : string -> (t, string) result

(** {2 Accessors} — all total. *)

(** Object member lookup (first match). *)
val member : string -> t -> t option

val str : t -> string option
val int : t -> int option

(** [mem_str "op" v] = member then {!str}. *)
val mem_str : string -> t -> string option

val mem_int : string -> t -> int option

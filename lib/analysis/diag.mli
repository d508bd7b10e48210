(** Structured diagnostics shared by every analysis pass. *)

type severity = Error | Warning | Info

type t = {
  pass : string;
  severity : severity;
  kernel : string;
  pos : int option;
  message : string;
}

val make :
  pass:string -> severity:severity -> kernel:string -> ?pos:int ->
  ('a, unit, string, t) format4 -> 'a

val error :
  pass:string -> kernel:string -> ?pos:int -> ('a, unit, string, t) format4 -> 'a

val warning :
  pass:string -> kernel:string -> ?pos:int -> ('a, unit, string, t) format4 -> 'a

val info :
  pass:string -> kernel:string -> ?pos:int -> ('a, unit, string, t) format4 -> 'a

val is_error : t -> bool
val count_errors : t list -> int

(** Severity-major stable sort (errors first). *)
val sort : t list -> t list

(** Canonical order keyed on every field (kernel, pos, pass, severity,
    message) with exact duplicates collapsed; reports rendered from a
    canonical list are byte-identical regardless of producer scheduling. *)
val canonical : t list -> t list

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val to_json : t -> Vjson.t

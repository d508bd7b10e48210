(** Execution environment: array storage, parameters, deterministic init. *)

type store = F_arr of float array | I_arr of int array

type t = {
  n : int;
  n2 : int;
  arrays : (string, store) Hashtbl.t;
  params : (string, float) Hashtbl.t;
  frozen : (string, unit) Hashtbl.t;
  mutable on_access : (string -> int -> bool -> unit) option;
}

exception Out_of_bounds of string * int

(** Ownership of a buffer inside an environment: [Frozen] arrays alias the
    process-wide shared master and must never be written; [Owned] arrays
    are private copies of it. *)
type ownership = Frozen | Owned

(** Global write barrier over frozen buffers.  When enabled, any
    interpreter-path write to a [Frozen] array raises [Frozen_write]
    before mutating shared state.  Enabled by the sanitizer
    ([Vexec.Sanitize]); off by default. *)
val set_frozen_guard : bool -> unit

exception Frozen_write of string * int

(** Deterministic key-sorted fold over the process-wide memoized master
    buffers.  The store views alias the masters themselves — strictly
    read-only. *)
val fold_masters : (string -> store -> 'a -> 'a) -> 'a -> 'a

(** Drop every memoized master (tests recovering from a poisoned table). *)
val clear_masters : unit -> unit

(** Corrupt one memoized master in place (the [sanitize.poison] fault
    hook); returns its printable key, or [None] if no masters exist. *)
val poison_master : unit -> string option

(** Allocate and deterministically initialize state for a kernel at problem
    size [n] (>= 4).  Same seed => bit-identical state.  Distinct buffers
    are initialized once per process (memoized masters) and copied in.

    [readonly name = true] is a caller promise that [name] is never written
    through this environment; the array then aliases the shared master
    instead of copying it.  Pass it only when the set of writes is
    statically known (e.g. the kernel's store set). *)
val create :
  ?seed:int -> ?readonly:(string -> bool) -> n:int -> Vir.Kernel.t -> t

(** Re-initialize in place for a fresh run of the kernel: contents identical
    to [create ?seed ~n:t.n k], reusing existing buffers of matching kind
    and length instead of reallocating (repeat measurements call this
    between repeats).  Parameters are restored to their defaults. *)
val reset : ?seed:int -> t -> Vir.Kernel.t -> unit

val set_param : t -> string -> float -> unit

(** Install / remove a hook called as [f arr idx is_write] on every element
    access (trace-driven cache simulation). *)
val set_trace : t -> (string -> int -> bool -> unit) -> unit

val clear_trace : t -> unit
val param : t -> string -> float
val store : t -> string -> store

val read_float : t -> string -> int -> float
val read_int : t -> string -> int -> int
val write_float : t -> string -> int -> float -> unit
val write_int : t -> string -> int -> int -> unit

(** All arrays as float snapshots, sorted by name. *)
val snapshot : t -> (string * float array) list

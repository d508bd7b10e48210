(** Set-associative LRU caches and a simple hierarchy, for trace-driven
    validation of the analytic memory model. *)

type config = { size_bytes : int; ways : int; line_bytes : int }

type t

(** @raise Invalid_argument when the geometry is inconsistent. *)
val create : config -> t

(** Touch one byte address; true on hit.  Misses install the line (LRU).
    @raise Invalid_argument on a negative address. *)
val access : t -> int -> bool

(** {!access}, reporting the way that holds the address's line afterwards
    as a flat index [w] ([set * ways + way]): [w] on a hit, [lnot w] on a
    miss.
    @raise Invalid_argument on a negative address. *)
val access_way : t -> int -> int

(** [rehit t ~way ~line] is the hit of an access to [line] when way [way]
    (a flat index from {!access_way}) still holds it: it counts and stamps
    exactly as that access would, and returns true.  Otherwise it changes
    nothing and returns false. *)
val rehit : t -> way:int -> line:int -> bool

val accesses : t -> int
val misses : t -> int
val reset_stats : t -> unit

type hierarchy = { levels : t list }

val hierarchy : config list -> hierarchy

(** Index of the level that hit (= number of levels on a full miss). *)
val hierarchy_access : hierarchy -> int -> int

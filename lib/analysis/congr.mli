(** Linear-congruence domain (Granger): sets of integers m*Z + r.  [m = 0]
    is the constant r, [m = 1] is top; for m > 1 the set is the residue
    class r mod m.  Drives the aligned/unaligned classification of affine
    subscripts per vector factor. *)

type t = private { m : int; r : int }

(** Normalizing constructor: m is taken absolute, r reduced into [0, m). *)
val make : int -> int -> t

val const : int -> t
val top : t
val add : t -> t -> t
val mul_const : int -> t -> t

(** [residue_mod c ~k] is the single residue class modulo [k] containing all
    of [c], when one exists (k | m, or [c] constant). *)
val residue_mod : t -> k:int -> int option

val to_string : t -> string

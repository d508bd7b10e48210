(** Exact integer intervals and loop iteration ranges — the shared kernel of
    every bounds-safety proof ([Vexec.Closure.affine_safe], the abstract
    interpreter's loop ranges, the relational certifier's concrete
    cross-checks).  All arithmetic is exact over native ints. *)

type t = { lo : int; hi : int }  (** nonempty inclusive interval *)

(** Raises [Invalid_argument] when [lo > hi]. *)
val make : int -> int -> t

val point : int -> t

(** [within r ~lo ~hi] iff r is contained in the inclusive range. *)
val within : t -> lo:int -> hi:int -> bool

(** Exact value range of a loop variable driven as
    [for v = start; v < bound; v += step].  [`Empty] when the guard fails
    immediately ([start >= bound] — including non-positive steps, which
    historically were conservatively unprovable); [`Unknown] for a
    non-positive step over a nonempty range (no finite iteration set). *)
val loop_values :
  start:int -> step:int -> bound:int -> [ `Empty | `Range of t | `Unknown ]

(** Exact hull of the affine form [const + Σ coeff.(j) * env.(depth.(j))]
    over the box [env]; endpoints are attained at real corner points. *)
val affine_hull :
  const:int -> coeff:int array -> depth:int array -> env:t array -> t

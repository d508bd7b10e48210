(** Interval domain over IEEE doubles: one lattice for both interpreter value
    classes (floats directly, integers through their float embedding).
    Transfer functions are sound w.r.t. [Vinterp.Interp]'s concrete
    semantics: corner evaluation with round-to-nearest monotone ops for
    floats, outward rounding plus a 63-bit overflow guard for integers. *)

type t = private { lo : float; hi : float }

val top : t

(** Normalizing constructor: NaN bounds widen to the matching infinity,
    inverted bounds collapse to [top]. *)
val make : float -> float -> t

val const : float -> t
val of_int : int -> t
val of_ints : int -> int -> t

(** The abstraction of a boolean: \[0, 1\] with false = 0, true = 1. *)
val bool_range : t

val is_const : t -> bool
val is_bounded : t -> bool

(** NaN is contained only in [top] (only ops that return [top] can produce
    it). *)
val contains : t -> float -> bool

val contains_int : t -> int -> bool
val equal : t -> t -> bool
val join : t -> t -> t

(** Classic widening: any bound that grew versus [prev] jumps to infinity. *)
val widen : prev:t -> next:t -> t

(** Float transfer functions (IEEE round-to-nearest, like the interpreter). *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val div : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val abs_ : t -> t
val sqrt_ : t -> t
val fma : t -> t -> t -> t

(** Integer transfer functions (modelling OCaml's native int ops). *)

val add_int : t -> t -> t
val sub_int : t -> t -> t
val mul_int : t -> t -> t

(** Truncation toward zero ([int_of_float]). *)
val trunc : t -> t

val div_int : t -> t -> t
val rem_int : t -> t -> t
val lnot_int : t -> t
val land_int : t -> t -> t
val lor_int : t -> t -> t
val lxor_int : t -> t -> t
val shl_int : t -> t -> t
val shr_int : t -> t -> t
val to_string : t -> string

(** Scalar element types shared by the scalar and vector IRs. *)

type scalar = I32 | I64 | F32 | F64

val equal_scalar : scalar -> scalar -> bool
val is_float : scalar -> bool
val is_int : scalar -> bool

(** Size of one element in bytes. *)
val size_bytes : scalar -> int

val to_string : scalar -> string

(** All element types, in a fixed order. *)
val all : scalar list

(* Scalar element types of the loop IR.  Vector shapes are represented
   elsewhere as a [scalar] plus a lane count, so that the scalar IR and the
   vectorized IR share one element-type vocabulary. *)

type scalar = I32 | I64 | F32 | F64

let equal_scalar (a : scalar) (b : scalar) = a = b

let is_float = function F32 | F64 -> true | I32 | I64 -> false
let is_int t = not (is_float t)

(* Size in bytes of one element; drives memory-footprint and bandwidth
   computations in the machine model. *)
let size_bytes = function I32 | F32 -> 4 | I64 | F64 -> 8

let to_string = function
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "f32"
  | F64 -> "f64"

let all = [ I32; I64; F32; F64 ]

(** Operation vocabulary of the IR. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Min
  | Max
  | And
  | Or
  | Xor
  | Shl
  | Shr

type unop = Neg | Abs | Sqrt | Not
type cmpop = Eq | Ne | Lt | Le | Gt | Ge

(** Reduction operators: order-insensitive loop-carried accumulations. *)
type redop = Rsum | Rprod | Rmin | Rmax

val binop_to_string : binop -> string
val unop_to_string : unop -> string
val cmpop_to_string : cmpop -> string
val redop_to_string : redop -> string

val binop_commutative : binop -> bool
val binop_int_only : binop -> bool
val unop_float_only : unop -> bool
val unop_int_only : unop -> bool

val all_binops : binop list
val all_redops : redop list

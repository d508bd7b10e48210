(* Operation vocabulary of the IR.  The machine model and the cost model both
   key their tables on these constructors, so the set is deliberately closed
   and small: the TSVC loop patterns need nothing more. *)

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

(* Reduction operators recognized by the vectorizer.  A reduction is a
   loop-carried accumulation [acc <- op acc src] whose intermediate value is
   never otherwise observed, so lanes may be combined in any order. *)
type redop = Rsum | Rprod | Rmin | Rmax

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Min -> "min"
  | Max -> "max"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let unop_to_string = function
  | Neg -> "neg"
  | Abs -> "abs"
  | Sqrt -> "sqrt"
  | Not -> "not"

let cmpop_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let redop_to_string = function
  | Rsum -> "sum"
  | Rprod -> "prod"
  | Rmin -> "min"
  | Rmax -> "max"

(* Commutativity is used by the SLP packer when matching isomorphic
   instruction pairs. *)
let binop_commutative = function
  | Add | Mul | Min | Max | And | Or | Xor -> true
  | Sub | Div | Rem | Shl | Shr -> false

let all_binops = [ Add; Sub; Mul; Div; Rem; Min; Max; And; Or; Xor; Shl; Shr ]
let all_redops = [ Rsum; Rprod; Rmin; Rmax ]

(* Integer-only / float-only restrictions used by the validator. *)
let binop_int_only = function
  | And | Or | Xor | Shl | Shr | Rem -> true
  | Add | Sub | Mul | Div | Min | Max -> false

let unop_float_only = function Sqrt -> true | Neg | Abs | Not -> false
let unop_int_only = function Not -> true | Neg | Abs | Sqrt -> false

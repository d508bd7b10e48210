(** Scalar loop-body instructions in SSA-by-position form: the instruction at
    body index [k] defines virtual register [k]. *)

type operand =
  | Reg of int
  | Index of string
  | Param of string
  | Imm_int of int
  | Imm_float of float

(** One array subscript:
    [if rel_n then dim_bound - 1 else 0] + Σ coeff·loop_var + Σ coeff·param + off. *)
type dim = {
  terms : (string * int) list;
  pterms : (string * int) list;
  off : int;
  rel_n : bool;
}

type addr =
  | Affine of { arr : string; dims : dim list }
  | Indirect of { arr : string; idx : operand }

type t =
  | Bin of { ty : Types.scalar; op : Op.binop; a : operand; b : operand }
  | Una of { ty : Types.scalar; op : Op.unop; a : operand }
  | Fma of { ty : Types.scalar; a : operand; b : operand; c : operand }
  | Cmp of { ty : Types.scalar; op : Op.cmpop; a : operand; b : operand }
  | Select of { ty : Types.scalar; cond : operand; if_true : operand; if_false : operand }
  | Load of { ty : Types.scalar; addr : addr }
  | Store of { ty : Types.scalar; addr : addr; src : operand }
  | Cast of { src_ty : Types.scalar; dst_ty : Types.scalar; a : operand }

(** A constant subscript dimension. *)
val dim_const : ?rel_n:bool -> int -> dim

(** All operands read, including indirect-address indices. *)
val operands : t -> operand list

(** Register numbers read by the instruction. *)
val reg_uses : t -> int list

val is_store : t -> bool
val is_load : t -> bool

(** Result element type, [None] for stores. *)
val result_ty : t -> Types.scalar option

val addr_array : addr -> string

(** Name of the array touched by a load/store, if any. *)
val accessed_array : t -> string option

(** Rewrite every operand (including indirect-address indices). *)
val map_operands : (operand -> operand) -> t -> t

val normalize_addr : addr -> addr

(** Syntactic address identity: same location on every iteration.  [false]
    is always a safe (conservative) answer. *)
val equal_addr : addr -> addr -> bool

(** Shift affine subscripts of [var] by [delta] iterations (unrolling). *)
val shift_dim : string -> int -> dim -> dim
val shift_var : string -> int -> t -> t

(* Scalar loop-body instructions.

   A loop body is a list of instructions in SSA-by-position form: the
   instruction at index [k] defines virtual register [k] (stores define
   nothing, their slot is simply never referenced).  Memory is addressed
   either by a (multi-dimensional) affine expression over the enclosing loop
   variables or indirectly through a register holding a computed index. *)

type operand =
  | Reg of int  (* result of body instruction [k] *)
  | Index of string  (* current value of the named loop variable *)
  | Param of string  (* scalar runtime parameter *)
  | Imm_int of int
  | Imm_float of float

(* One array-subscript dimension:
     value = [if rel_n then dim_bound - 1 else 0]
             + sum (coeff * loop_var) + sum (coeff * int_param) + off
   [rel_n] expresses reversed traversals like a[(n-1) - i] without baking the
   problem size into the IR. *)
type dim = {
  terms : (string * int) list;  (* loop variable * coefficient *)
  pterms : (string * int) list;  (* integer parameter * coefficient *)
  off : int;
  rel_n : bool;
}

type addr =
  | Affine of { arr : string; dims : dim list }  (* row-major, 1 or 2 dims *)
  | Indirect of { arr : string; idx : operand }
      (* arr[idx] where idx is an integer computed in the body *)

type t =
  | Bin of { ty : Types.scalar; op : Op.binop; a : operand; b : operand }
  | Una of { ty : Types.scalar; op : Op.unop; a : operand }
  | Fma of { ty : Types.scalar; a : operand; b : operand; c : operand }
      (* a * b + c; float only *)
  | Cmp of { ty : Types.scalar; op : Op.cmpop; a : operand; b : operand }
      (* operands of type [ty]; result is a boolean mask *)
  | Select of { ty : Types.scalar; cond : operand; if_true : operand; if_false : operand }
  | Load of { ty : Types.scalar; addr : addr }
  | Store of { ty : Types.scalar; addr : addr; src : operand }
  | Cast of { src_ty : Types.scalar; dst_ty : Types.scalar; a : operand }

let equal_operand (a : operand) (b : operand) = a = b

let dim_const ?(rel_n = false) off = { terms = []; pterms = []; off; rel_n }

(* Operands read through an address (only indirect indices). *)
let addr_operands = function
  | Affine _ -> []
  | Indirect { idx; _ } -> [ idx ]

let operands = function
  | Bin { a; b; _ } | Cmp { a; b; _ } -> [ a; b ]
  | Una { a; _ } | Cast { a; _ } -> [ a ]
  | Fma { a; b; c; _ } -> [ a; b; c ]
  | Select { cond; if_true; if_false; _ } -> [ cond; if_true; if_false ]
  | Load { addr; _ } -> addr_operands addr
  | Store { addr; src; _ } -> src :: addr_operands addr

(* Registers read by an instruction. *)
let reg_uses instr =
  List.filter_map (function Reg r -> Some r | _ -> None) (operands instr)

let is_store = function Store _ -> true | _ -> false
let is_load = function Load _ -> true | _ -> false

(* The result element type of an instruction, when it defines a value.
   [Cmp] results are boolean masks; we report the comparison operand type
   since mask width follows it on both NEON and AVX2. *)
let result_ty = function
  | Bin { ty; _ } | Una { ty; _ } | Fma { ty; _ } | Cmp { ty; _ }
  | Select { ty; _ } | Load { ty; _ } ->
      Some ty
  | Cast { dst_ty; _ } -> Some dst_ty
  | Store _ -> None

let addr_array = function
  | Affine { arr; _ } | Indirect { arr; _ } -> arr

let accessed_array = function
  | Load { addr; _ } | Store { addr; _ } -> Some (addr_array addr)
  | Bin _ | Una _ | Fma _ | Cmp _ | Select _ | Cast _ -> None

(* Rewrite every operand of an instruction (indirect indices included). *)
let map_operands f instr =
  let fa = function
    | Affine _ as a -> a
    | Indirect { arr; idx } -> Indirect { arr; idx = f idx }
  in
  match instr with
  | Bin r -> Bin { r with a = f r.a; b = f r.b }
  | Una r -> Una { r with a = f r.a }
  | Fma r -> Fma { r with a = f r.a; b = f r.b; c = f r.c }
  | Cmp r -> Cmp { r with a = f r.a; b = f r.b }
  | Select r ->
      Select
        { r with cond = f r.cond; if_true = f r.if_true; if_false = f r.if_false }
  | Load r -> Load { r with addr = fa r.addr }
  | Store r -> Store { r with addr = fa r.addr; src = f r.src }
  | Cast r -> Cast { r with a = f r.a }

(* Canonical form of a subscript dimension: zero coefficients dropped, terms
   sorted by variable name.  Two dims denote the same index function iff
   their normal forms are structurally equal, which is what the dead-store
   and value-numbering passes compare. *)
let normalize_dim d =
  let clean l = List.sort compare (List.filter (fun (_, c) -> c <> 0) l) in
  { d with terms = clean d.terms; pterms = clean d.pterms }

let equal_dim a b = normalize_dim a = normalize_dim b

let normalize_addr = function
  | Affine { arr; dims } -> Affine { arr; dims = List.map normalize_dim dims }
  | Indirect _ as a -> a

(* Syntactic address identity (same location on every iteration): affine
   subscripts compare by normal form, indirect ones by array and index
   operand.  [false] is always a safe answer. *)
let equal_addr a b =
  match (a, b) with
  | Affine { arr = a1; dims = d1 }, Affine { arr = a2; dims = d2 } ->
      String.equal a1 a2
      && List.length d1 = List.length d2
      && List.for_all2 equal_dim d1 d2
  | Indirect { arr = a1; idx = i1 }, Indirect { arr = a2; idx = i2 } ->
      String.equal a1 a2 && equal_operand i1 i2
  | Affine _, Indirect _ | Indirect _, Affine _ -> false

(* Shift the coefficient-weighted offset of [var] in an affine dimension by
   [delta] iterations worth of that variable; used by the loop unroller to
   produce the copies for var+1, var+2, ... *)
let shift_dim var delta d =
  match List.assoc_opt var d.terms with
  | None -> d
  | Some c -> { d with off = d.off + (c * delta) }

let shift_addr var delta = function
  | Affine { arr; dims } -> Affine { arr; dims = List.map (shift_dim var delta) dims }
  | Indirect _ as a -> a

(* Shift all affine references to [var] by [delta] iterations.  Non-address
   uses of the variable must be rewritten separately (they need fresh [Bin]
   instructions); [map_operands] is the hook for that. *)
let shift_var var delta instr =
  match instr with
  | Load r -> Load { r with addr = shift_addr var delta r.addr }
  | Store r -> Store { r with addr = shift_addr var delta r.addr }
  | Bin _ | Una _ | Fma _ | Cmp _ | Select _ | Cast _ -> instr

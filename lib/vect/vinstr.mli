(** Vectorized loop-body instructions (SSA-by-position, like the scalar IR). *)

open Vir

(** How a wide memory access touches memory. *)
type access =
  | Contig
  | Rev  (** contiguous backwards: wide access + lane reversal *)
  | Strided of int  (** |stride| > 1 elements between lanes *)
  | Row  (** stride scales with the matrix width (column walk) *)

type voperand =
  | V of int  (** vbody register *)
  | Splat of Instr.operand
      (** loop-invariant broadcast: Param, Imm, outer Index, or Reg of a
          scalar-width vbody position *)

type t =
  | Vbin of { ty : Types.scalar; op : Op.binop; a : voperand; b : voperand }
  | Vuna of { ty : Types.scalar; op : Op.unop; a : voperand }
  | Vfma of { ty : Types.scalar; a : voperand; b : voperand; c : voperand }
  | Vcmp of { ty : Types.scalar; op : Op.cmpop; a : voperand; b : voperand }
  | Vselect of { ty : Types.scalar; cond : voperand; if_true : voperand; if_false : voperand }
  | Vload of { ty : Types.scalar; arr : string; dims : Instr.dim list; access : access }
  | Vstore of
      { ty : Types.scalar; arr : string; dims : Instr.dim list; access : access;
        src : voperand }
  | Vgather of { ty : Types.scalar; arr : string; idx : voperand }
  | Vscatter of { ty : Types.scalar; arr : string; idx : voperand; src : voperand }
  | Viota of { ty : Types.scalar }
      (** lane l holds the innermost variable's value plus l steps *)
  | Vcast of { src_ty : Types.scalar; dst_ty : Types.scalar; a : voperand }
  | Vpack of { ty : Types.scalar; srcs : Instr.operand array }
      (** build a vector from scalar operands (insertelement chain) *)
  | Vextract of { ty : Types.scalar; src : voperand; lane : int }
  | Sc of { copy : int; instr : Instr.t }
      (** scalar instruction for unroll copy [copy]; its [Reg] operands
          refer to scalar-width vbody positions; the innermost variable is
          bound to its lane-[copy] value *)

val access_to_string : access -> string

type source = Src_llv | Src_slp

type vreduction = {
  vr_name : string;
  vr_ty : Types.scalar;
  vr_op : Op.redop;
  vr_src : voperand;
  vr_init : float;
}

(** A vectorized kernel: original scalar kernel (epilogue + ground truth),
    vector factor, wide body and per-lane reductions. *)
type vkernel = {
  scalar : Kernel.t;
  vf : int;
  ic : int;  (** interleave count (independent sub-blocks per iteration) *)
  vbody : t list;
  vreductions : vreduction list;
  source : source;
}

(* Vectorized loop-body instructions.

   Like the scalar body, a vector body is SSA-by-position.  Most instructions
   are [vf] lanes wide; [Sc] wraps a scalar instruction kept for one unroll
   copy (SLP leftovers), and [Vpack]/[Vextract] cross the scalar/vector
   boundary explicitly so that the machine model can charge for the
   insert/extract traffic exactly as LLVM's SLP cost model does. *)

open Vir

(* How a wide memory access touches memory; decides between one wide
   load/store, a shuffle-reversed access, an interleaved strided access, or a
   scalarized gather/scatter. *)
type access =
  | Contig
  | Rev  (* contiguous backwards: wide access + lane reversal *)
  | Strided of int  (* |stride| > 1 elements between lanes *)
  | Row  (* stride scales with the matrix width (column walk) *)

type voperand =
  | V of int  (* vector (or scalar, for [Sc]/[Vextract] results) register *)
  | Splat of Instr.operand
      (* loop-invariant scalar broadcast: Param, Imm, outer Index,
         or Reg of a scalar-width vbody position *)

type t =
  | Vbin of { ty : Types.scalar; op : Op.binop; a : voperand; b : voperand }
  | Vuna of { ty : Types.scalar; op : Op.unop; a : voperand }
  | Vfma of { ty : Types.scalar; a : voperand; b : voperand; c : voperand }
  | Vcmp of { ty : Types.scalar; op : Op.cmpop; a : voperand; b : voperand }
  | Vselect of { ty : Types.scalar; cond : voperand; if_true : voperand; if_false : voperand }
  | Vload of { ty : Types.scalar; arr : string; dims : Instr.dim list; access : access }
      (* [dims] subscript lane 0; lane l adds l innermost steps *)
  | Vstore of
      { ty : Types.scalar; arr : string; dims : Instr.dim list; access : access;
        src : voperand }
  | Vgather of { ty : Types.scalar; arr : string; idx : voperand }
  | Vscatter of { ty : Types.scalar; arr : string; idx : voperand; src : voperand }
  | Viota of { ty : Types.scalar }
      (* [v, v+s, ..., v+(vf-1)s] for the innermost variable *)
  | Vcast of { src_ty : Types.scalar; dst_ty : Types.scalar; a : voperand }
  | Vpack of { ty : Types.scalar; srcs : Instr.operand array }
      (* build a vector from vf scalar operands (insertelement chain) *)
  | Vextract of { ty : Types.scalar; src : voperand; lane : int }
      (* scalar-width result *)
  | Sc of { copy : int; instr : Instr.t }
      (* scalar instruction executed for unroll copy [copy]; its [Reg]
         operands refer to scalar-width vbody positions *)

let access_to_string = function
  | Contig -> "contig"
  | Rev -> "rev"
  | Strided s -> Printf.sprintf "strided(%d)" s
  | Row -> "row"

type source = Src_llv | Src_slp

type vreduction = {
  vr_name : string;
  vr_ty : Types.scalar;
  vr_op : Op.redop;
  vr_src : voperand;
  vr_init : float;
}

(* A vectorized kernel: the original scalar kernel (used for the epilogue and
   as ground truth), the vector factor, and the wide body. *)
type vkernel = {
  scalar : Kernel.t;
  vf : int;
  ic : int;
      (* interleave count: sub-blocks (with independent accumulators)
         executed per loop iteration; 1 = no interleaving *)
  vbody : t list;
  vreductions : vreduction list;
  source : source;
}

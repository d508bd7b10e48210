(** Kernels: perfect loop nests around one basic block, with reductions. *)

type trip = Tn | Tn_div of int | Tn_minus of int | Tn2 | Tn2_minus of int | Tconst of int

type loop = { var : string; trip : trip; start : int; step : int }

type extent = Lin of int * int | Quad
type array_role = Data | Idx

type array_decl = {
  arr_name : string;
  arr_ty : Types.scalar;
  arr_extent : extent;
  arr_role : array_role;
}

type reduction = {
  red_name : string;
  red_ty : Types.scalar;
  red_op : Op.redop;
  red_src : Instr.operand;
  red_init : float;
}

type t = {
  name : string;
  descr : string;
  loops : loop list;
  body : Instr.t list;
  reductions : reduction list;
  arrays : array_decl list;
  params : string list;
}

(** The innermost (vectorization-candidate) loop.
    @raise Invalid_argument if the kernel has no loops. *)
val innermost : t -> loop

val find_array : t -> string -> array_decl option

val isqrt : int -> int
val trip_bound : n:int -> trip -> int

(** Executed iteration count of one loop for problem size [n]. *)
val iterations : n:int -> loop -> int

val extent_elems : n:int -> extent -> int

(** Product of the iteration counts of all loops. *)
val total_iterations : n:int -> t -> int

(** Address movement per innermost iteration. *)
type stride = Sconst of int | Srow of int | Sindirect

val coeff_of : string -> Instr.dim -> int
val access_stride : t -> Instr.addr -> stride

val footprint_bytes : n:int -> t -> int
val loop_vars : t -> string list

(** Set of register numbers referenced by the body or the reductions. *)
val used_regs : t -> (int, unit) Hashtbl.t

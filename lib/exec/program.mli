(* Flat register-machine bytecode lowered from a kernel body.

   [lower] resolves every operand of the (SSA-by-position) body to a slot in
   an unboxed float or int register file, splits immediates and scalar
   parameters into preloaded slots, assigns loop variables mirror slots, and
   reduces every affine memory access to a descriptor whose index function is
   a bind-time constant plus per-loop-depth element coefficients.  The
   resulting program is compiled to OCaml closures by [Closure], over the
   state arena of [Flat], with semantics bit-identical to [Vinterp.Interp],
   traps included. *)

(* Instruction encoding: [stride] ints per instruction — opcode, destination
   slot, then up to three sources (loads/stores carry an access id). *)
val stride : int

val op_fadd : int
val op_fsub : int
val op_fmul : int
val op_fdiv : int
val op_fmin : int
val op_fmax : int
val op_fneg : int
val op_fabs : int
val op_fsqrt : int
val op_fma : int
val op_fceq : int
val op_fcne : int
val op_fclt : int
val op_fcle : int
val op_fcgt : int
val op_fcge : int
val op_fsel : int
val op_isel : int
val op_fsel_t : int
val op_fsel_f : int
val op_isel_t : int
val op_isel_f : int
val op_f_of_i : int
val op_i_of_f : int
val op_fmov : int
val op_imov : int
val op_iadd : int
val op_isub : int
val op_imul : int
val op_idiv : int
val op_irem : int
val op_imin : int
val op_imax : int
val op_iand : int
val op_ior : int
val op_ixor : int
val op_ishl : int
val op_ishr : int
val op_ineg : int
val op_iabs : int
val op_inot : int
val op_ld_ff : int
val op_ld_fi : int
val op_ld_if : int
val op_ld_ii : int
val op_st_ff : int
val op_st_fi : int
val op_st_if : int
val op_st_ii : int
val op_trap : int
val op_count : int

(* Sources for preloaded register slots, resolved when the program is bound
   to an environment. *)
type fsrc = F_lit of float | F_param of string
type isrc = I_lit of int | I_param of string

(* One term of an affine index function: the element coefficient of the loop
   variable at [t_depth] is [t_c0 * n2 + t_c1] after row-major flattening
   (1-d accesses keep [t_c0] = 0). *)
type aterm = { t_depth : int; t_c0 : int; t_c1 : int }

type access = {
  acc_arr : int;  (* array slot *)
  acc_name : string;  (* for [Env.Out_of_bounds] reporting *)
  acc_float : bool;  (* storage kind of the array slot *)
  acc_ind : int;  (* int register holding an indirect index; -1 = affine *)
  acc_ndims : int;
  acc_rel : bool * bool;  (* rel_n per dim (snd unused for 1-d) *)
  acc_off : int * int;
  acc_pt : (string * int) list * (string * int) list;
  acc_terms : aterm array;
}

type loopdesc = {
  l_var : string;
  l_trip : Vir.Kernel.trip;
  l_start : int;
  l_step : int;
  l_islot : int;  (* int mirror slot, -1 if the body never reads it as int *)
  l_fslot : int;  (* float mirror slot, -1 if never read as float *)
}

type red = {
  rd_name : string;
  rd_op : Vir.Op.redop;
  rd_init : float;
  rd_slot : int;  (* float slot holding the per-iteration source value *)
}

type t = {
  kernel : Vir.Kernel.t;
  code : int array;
  nf : int;  (* float register file size *)
  ni : int;  (* int register file size *)
  f_init : (int * fsrc) array;
  i_init : (int * isrc) array;
  arr_names : string array;
  arr_float : bool array;
  loops : loopdesc array;  (* outermost first *)
  accesses : access array;
  reds : red array;
  traps : string array;  (* messages for [op_trap] / trapping selects *)
}

val array_decls : Vir.Kernel.t -> Vir.Kernel.array_decl array
(** The kernel's arrays indexed by slot: its declaration order.  [arr_names],
    access descriptors and traced accesses all number arrays this way. *)

val array_slot : Vir.Kernel.t -> string -> int
(** The slot of a declared array: its index in [array_decls].  Apply it to
    the kernel once and reuse the result to look up many names.
    @raise Invalid_argument on an undeclared name. *)

val lower : Vir.Kernel.t -> t
val n_insns : t -> int

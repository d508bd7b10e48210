(* Typed instructions lowered from a kernel body.

   [lower] resolves every operand of the (SSA-by-position) body to a slot in
   an unboxed float or int register file, splits immediates and scalar
   parameters into preloaded slots, assigns loop variables mirror slots, and
   reduces every affine memory access to a descriptor whose index function is
   a bind-time constant plus per-loop-depth element coefficients.  The
   resulting instruction array is compiled to OCaml closures by [Closure],
   over the state arena of [Flat], with semantics bit-identical to
   [Vinterp.Interp], traps included. *)

(** One instruction.  [d] is the destination slot and [a], [b], [c] are
    source slots, in the register file the constructor names ([F]: float,
    [I]: int); comparison results and select conditions are int slots
    holding 0/1.  Loads and stores name an access descriptor ([acc], an
    index into [accesses]) and use the register file of the array's storage
    ([Fload]/[Fstore] float arrays, [Iload]/[Istore] int arrays, as
    [arr_float] says): [lower] turns an access typed otherwise into the
    same-kind access plus an explicit [F_of_i]/[I_of_f], after a load and
    before a store.  Traps name a message ([trap], an index into
    [traps]).  An operator outside its
    file's vocabulary (an integer-only binop in [Fbin], [Not] in [Funary],
    [Sqrt] in [Iunary]) traps as the interpreter does. *)
type insn =
  | Fbin of { op : Vir.Op.binop; d : int; a : int; b : int }
  | Ibin of { op : Vir.Op.binop; d : int; a : int; b : int }
  | Funary of { op : Vir.Op.unop; d : int; a : int }
  | Iunary of { op : Vir.Op.unop; d : int; a : int }
  | Fma of { d : int; a : int; b : int; c : int }  (** unfused [a * b + c] *)
  | Fcmp of { op : Vir.Op.cmpop; d : int; a : int; b : int }
      (** float sources, 0/1 result in the int file *)
  | Fsel of { d : int; a : int; b : int; c : int }  (** [c ? a : b] *)
  | Isel of { d : int; a : int; b : int; c : int }
  | Fsel_trap of { d : int; a : int; trap : int; c : int; traps_if : bool }
      (** a select whose other arm traps: raise when [c] is [traps_if],
          else [d <- a] *)
  | Isel_trap of { d : int; a : int; trap : int; c : int; traps_if : bool }
  | F_of_i of { d : int; a : int }
  | I_of_f of { d : int; a : int }
  | Fload of { d : int; acc : int }
  | Iload of { d : int; acc : int }
  | Fstore of { acc : int; src : int }
  | Istore of { acc : int; src : int }
  | Trap of int  (** raise [Invalid_argument traps.(trap)] *)

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
  code : insn array;
  nf : int;  (* float register file size *)
  ni : int;  (* int register file size *)
  f_init : (int * fsrc) array;
  i_init : (int * isrc) array;
  arr_names : string array;
  arr_float : bool array;
  loops : loopdesc array;  (* outermost first *)
  accesses : access array;
  reds : red array;
  traps : string array;  (* messages for [Trap] and trapping selects *)
}

val array_decls : Vir.Kernel.t -> Vir.Kernel.array_decl array
(** The kernel's arrays indexed by slot: its declaration order.  [arr_names],
    access descriptors and traced accesses all number arrays this way. *)

val array_slot : Vir.Kernel.t -> string -> int
(** The slot of a declared array: its index in [array_decls].  Apply it to
    the kernel once and reuse the result to look up many names.
    @raise Invalid_argument on an undeclared name. *)

val lower : Vir.Kernel.t -> t

(** Imperative builder eDSL for kernels. *)

type t

val make : ?descr:string -> string -> t

(** Open a loop (outermost first).  Returns the loop-variable operand. *)
val loop : t -> ?start:int -> ?step:int -> string -> Kernel.trip -> Instr.operand

(** Register and return a scalar runtime parameter. *)
val param : t -> string -> Instr.operand

val ci : int -> Instr.operand
val cf : float -> Instr.operand

(** Subscripts. *)
val ix : ?scale:int -> ?off:int -> Instr.operand -> Instr.dim
val ix_const : ?rel_n:bool -> int -> Instr.dim

(** [(n-1) - i + off]: reversed traversal. *)
val ix_rev : ?off:int -> Instr.operand -> Instr.dim

val ix_vars : ?off:int -> (Instr.operand * int) list -> Instr.dim

val ix_plus_param : t -> Instr.dim -> string * int -> Instr.dim

(** Explicit declaration of an F32 array (overrides inference). *)
val declare :
  t -> ?role:Kernel.array_role -> ?extent:Kernel.extent -> string -> unit

val load : t -> ?ty:Types.scalar -> string -> Instr.dim list -> Instr.operand
val store : t -> ?ty:Types.scalar -> string -> Instr.dim list -> Instr.operand -> unit

(** Load from an [Idx] array (I32 indices in [0, n)). *)
val load_index : t -> string -> Instr.dim list -> Instr.operand

val load_ix : t -> ?ty:Types.scalar -> string -> Instr.operand -> Instr.operand
val store_ix : t -> ?ty:Types.scalar -> string -> Instr.operand -> Instr.operand -> unit

val bin : t -> Types.scalar -> Op.binop -> Instr.operand -> Instr.operand -> Instr.operand
val una : t -> Types.scalar -> Op.unop -> Instr.operand -> Instr.operand

val fma :
  t -> ?ty:Types.scalar -> Instr.operand -> Instr.operand -> Instr.operand ->
  Instr.operand

val cmp :
  t -> ?ty:Types.scalar -> Op.cmpop -> Instr.operand -> Instr.operand ->
  Instr.operand

val select :
  t -> ?ty:Types.scalar -> Instr.operand -> Instr.operand -> Instr.operand ->
  Instr.operand

val cast : t -> from_:Types.scalar -> to_:Types.scalar -> Instr.operand -> Instr.operand

val addf : t -> Instr.operand -> Instr.operand -> Instr.operand
val subf : t -> Instr.operand -> Instr.operand -> Instr.operand
val mulf : t -> Instr.operand -> Instr.operand -> Instr.operand
val divf : t -> Instr.operand -> Instr.operand -> Instr.operand
val minf : t -> Instr.operand -> Instr.operand -> Instr.operand
val maxf : t -> Instr.operand -> Instr.operand -> Instr.operand
val negf : t -> Instr.operand -> Instr.operand
val absf : t -> Instr.operand -> Instr.operand
val sqrtf : t -> Instr.operand -> Instr.operand

val addi : t -> Instr.operand -> Instr.operand -> Instr.operand
val muli : t -> Instr.operand -> Instr.operand -> Instr.operand

(** Declare a reduction accumulating [src] with [op] each innermost iteration. *)
val reduce :
  t -> ?ty:Types.scalar -> ?init:float -> string -> Op.redop -> Instr.operand ->
  unit

val finish : t -> Kernel.t

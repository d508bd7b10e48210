(** Shared shorthand for writing TSVC kernels compactly. *)

open Vir
module B = Builder

(** Build, finish and validate a kernel. *)
val mk : string -> string -> (B.t -> unit) -> Kernel.t

val ld : ?off:int -> B.t -> string -> Instr.operand -> Instr.operand
val st : ?off:int -> B.t -> string -> Instr.operand -> Instr.operand -> unit
val ld_rev : ?off:int -> B.t -> string -> Instr.operand -> Instr.operand
val st_rev : B.t -> string -> Instr.operand -> Instr.operand -> unit

val ld2 :
  ?roff:int -> ?coff:int -> B.t -> string -> Instr.operand -> Instr.operand ->
  Instr.operand

val st2 :
  B.t -> string -> Instr.operand -> Instr.operand -> Instr.operand -> unit

val ld_s : B.t -> string -> scale:int -> ?off:int -> Instr.operand -> Instr.operand
val st_s : B.t -> string -> scale:int -> ?off:int -> Instr.operand -> Instr.operand -> unit
val ldx : ?off:int -> B.t -> string -> Instr.operand -> Instr.operand

val c1 : Instr.operand
val c0 : Instr.operand
val chalf : Instr.operand
val c2 : Instr.operand

(** Cast the induction variable to f32. *)
val fidx : B.t -> Instr.operand -> Instr.operand

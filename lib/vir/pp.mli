(** Pretty-printing of kernels in a C-like surface syntax. *)

val dim : Format.formatter -> Instr.dim -> unit

(** [instr fmt pos i] prints instruction [i] as the definition of register
    [pos]. *)
val instr : Format.formatter -> int -> Instr.t -> unit

val loop : Format.formatter -> Kernel.loop -> unit
val kernel_to_string : Kernel.t -> string

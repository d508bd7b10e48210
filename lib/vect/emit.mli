(** Pseudo-assembly rendering of kernels (the moral equivalent of [-S]):
    symbolic addressing, SSA-position register names, NEON or AVX2
    mnemonic flavour. *)

type style = Neon | Avx

(** Render the scalar loop. *)
val scalar : ?style:style -> Vir.Kernel.t -> string

(** Render the vectorized loop (with reduction and epilogue markers). *)
val vector : ?style:style -> Vinstr.vkernel -> string

(** Random kernel generation for property tests and training-set extension
    (the paper's "add more tests" future-work item).  Kernels are pure
    functions of their seed and always well-formed. *)

(** One to eight operations over two to four loads. *)
val kernel : int -> Vir.Kernel.t

val batch : count:int -> int -> Vir.Kernel.t list

(** Adversarial dependence-stress kernels over a single array with random
    small offsets; frequently illegal to vectorize.  Used to check that a
    "legal" verdict always implies a semantics-preserving transform. *)
val dep_kernel : int -> Vir.Kernel.t

(** Two-level dependence-stress nests over one matrix with random small
    offsets in both subscripts (direction-vector coverage: carried at
    either depth, (<,>) shapes, interchange legality).  Bounds-safe at any
    problem size. *)
val nest_kernel : int -> Vir.Kernel.t

(** Structural and type well-formedness of kernels. *)

(** All violations found, empty when the kernel is well-formed. *)
val errors : Kernel.t -> string list

(** @raise Invalid_argument listing the violations, if any. *)
val check_exn : Kernel.t -> unit

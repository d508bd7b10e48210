(** Loop interchange for 2-level perfect nests, with direction-vector
    legality from the nest-wide dependence graph (refuses anything whose
    direction vectors stay unknown). *)

type error =
  | Not_two_level
  | Imperfect of string
  | Illegal_direction of string

val legal : Vir.Kernel.t -> (unit, error) result
val apply : Vir.Kernel.t -> (Vir.Kernel.t, error) result

(** When the nest only vectorizes after interchange, return the interchanged
    kernel. *)
val enable_vectorization : Vir.Kernel.t -> Vir.Kernel.t option

(** Loop unrolling of the innermost loop.

    The unrolled kernel executes [floor(iterations / uf) * uf] iterations of
    the original; use {!exact_for} to pick sizes where the transformation is
    exact. *)

(** Does the innermost trip count divide evenly at problem size [n]? *)
val exact_for : n:int -> Vir.Kernel.t -> int -> bool

(** Unroll by a factor >= 2.  @raise Invalid_argument otherwise. *)
val by : int -> Vir.Kernel.t -> Vir.Kernel.t

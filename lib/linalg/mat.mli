(** Dense row-major float matrices. *)

type t

val create : int -> int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val init : int -> int -> (int -> int -> float) -> t
val of_rows : float array list -> t
val copy : t -> t
val row : t -> int -> float array

(** Matrix restricted to the given columns, in the given order. *)
val select_cols : t -> int list -> t

val mat_vec : t -> float array -> float array

(** [tmat_vec a y] computes [a^T y]. *)
val tmat_vec : t -> float array -> float array

(** Dense row-major float matrices.

    [data] holds element [(i, j)] at [i * cols + j].  The fitters read and
    write it directly instead of through an accessor, so an element access
    allocates nothing; the record is private, so every matrix still comes
    from {!create}, {!of_rows}, {!copy} or {!select_cols} with
    [Array.length data = rows * cols]. *)

type t = private { rows : int; cols : int; data : float array }

(** A zero matrix. *)
val create : int -> int -> t

val rows : t -> int
val cols : t -> int
val of_rows : float array list -> t
val copy : t -> t

(** Matrix restricted to the given columns, in the given order.
    @raise Invalid_argument on a column outside the matrix. *)
val select_cols : t -> int list -> t

val mat_vec : t -> float array -> float array

(** [tmat_vec a y] computes [a^T y]. *)
val tmat_vec : t -> float array -> float array

(** Lawson–Hanson non-negative least squares. *)

(** Minimize [||a x - b||_2] subject to [x >= 0], in at most [10 * cols a]
    iterations. *)
val solve : Mat.t -> float array -> float array

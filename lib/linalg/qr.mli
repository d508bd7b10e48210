(** Householder-QR least squares. *)

exception Singular of string

(** Minimize [||a x - b||_2].  @raise Singular on rank deficiency. *)
val lstsq : Mat.t -> float array -> float array

(** Ridge-regularized least squares; never singular for [lambda > 0]. *)
val lstsq_ridge : lambda:float -> Mat.t -> float array -> float array

(** [lstsq_or_ridge ~lambda a b] is [(0.0, lstsq a b)], or
    [(lambda, lstsq_ridge ~lambda a b)] when that raises {!Singular}.  A
    design with an all-zero column (and every entry within 1e100 of zero)
    cannot pass [lstsq], and goes to the ridge solve without trying. *)
val lstsq_or_ridge : lambda:float -> Mat.t -> float array -> float * float array

(** [leverages ?lambda a] is the diagonal of the hat matrix
    [H = A (AᵀA + λ I)⁻¹ Aᵀ] — the leverage score of each of the [m]
    rows — from a single QR factorization in O(m·n²).  [lambda] defaults
    to [0.0] (plain least squares).  These make leave-one-out
    cross-validation of an L2 fit analytic: the held-out residual of row
    [i] is [e_i / (1 - h_i)].  @raise Singular on rank deficiency. *)
val leverages : ?lambda:float -> Mat.t -> float array

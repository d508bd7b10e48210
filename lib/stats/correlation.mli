(** Correlation coefficients. *)

(** Pearson's r; 0 for degenerate (constant) inputs. *)
val pearson : float array -> float array -> float

(** Fractional ranks with ties averaged (1-based). *)
val ranks : float array -> float array

(** Spearman's rank correlation. *)
val spearman : float array -> float array -> float

(** Well-formedness of the vector IR: SSA-by-position register discipline,
    scalar/vector width discipline, element-type agreement, lane/copy
    ranges, access-pattern tags — plus translation validation against the
    scalar kernel (see [Equiv]). *)

(** Structural and type checks only. *)
val check : Vvect.Vinstr.vkernel -> Diag.t list

(** [check] plus [Equiv.vkernel_diags] (translation validation runs only
    when the structural checks pass). *)
val errors : Vvect.Vinstr.vkernel -> Diag.t list

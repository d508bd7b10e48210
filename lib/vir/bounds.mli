(** Static array-bounds analysis over witness problem sizes.  Subscripts and
    extents are linear in n, so in-bounds at the witnesses (including one
    very large size) implies in-bounds at every practical size.  Flat
    subscripts are affine over a rectangular iteration box, so extrema are
    evaluated exactly at the box corners — every corner is a real iteration,
    which makes [Proven] verdicts witness actual traps. *)

type violation = {
  v_array : string;
  v_pos : int;
  v_n : int;
  v_index : int;
  v_extent : int;
}

type verdict =
  | Proven  (** violates under the interpreter's default parameter bindings *)
  | Possible
      (** clean at the defaults but violates for some parameter values
          inside the environment contract [1, 4] *)

type classified = { c_verdict : verdict; c_violation : violation }

val pp_violation : Format.formatter -> violation -> unit

(** Contract window a parameter's runtime value is drawn from: the
    environment's [1, 4] data window stretched to include the actual
    default binding. *)
val param_contract : Kernel.t -> string -> int * int

(** Classified violations over all witness sizes. *)
val classify : Kernel.t -> classified list

(** Violations over all witness sizes; empty means provably safe. *)
val check : Kernel.t -> violation list

(** Re-export of {!Vjson} under its old serving-tier name. *)
include module type of struct include Vjson end

(** Registry of scalar lint passes. *)

type t = {
  name : string;
  descr : string;
  run : Dataflow.t -> Diag.t list;
}

(** The built-in lints, in reporting order. *)
val builtin : t list

val find : string -> t option

(** Run one pass standalone (computes the dataflow facts itself). *)
val run_pass : t -> Vir.Kernel.t -> Diag.t list

(** Run every pass over one shared dataflow analysis. *)
val run_all : Vir.Kernel.t -> Diag.t list

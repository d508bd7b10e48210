(** Dataflow facts over the SSA-by-position scalar body: def-use chains,
    liveness towards stores/reductions, reaching constants and
    innermost-loop invariance.  Lint passes consume these facts. *)

open Vir

type const = Cint of int | Cfloat of float

type t = {
  kernel : Kernel.t;
  body : Instr.t array;
  users : int list array;
  reduction_uses : int array;
  live : bool array;
  consts : const option array;
  invariant : bool array;
}

(** Total number of reads of register [r] (body operands + reductions). *)
val use_count : t -> int -> int

val analyze : Kernel.t -> t

(** Whether an address denotes the same location on every innermost
    iteration. *)
val addr_invariant : t -> Instr.addr -> bool

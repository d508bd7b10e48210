(** Dataflow facts over the SSA-by-position scalar body: reduction use
    counts, liveness towards stores/reductions, reaching constants and
    innermost-loop invariance.  Lint passes consume these facts. *)

open Vir

type const = Cint of int | Cfloat of float

type t = {
  kernel : Kernel.t;
  body : Instr.t array;
  reduction_uses : int array;
  live : bool array;
  consts : const option array;
  invariant : bool array;
}

val analyze : Kernel.t -> t

(** Whether an address denotes the same location on every innermost
    iteration. *)
val addr_invariant : t -> Instr.addr -> bool

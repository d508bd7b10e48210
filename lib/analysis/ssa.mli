(** The SSA-by-position invariant of a kernel body.  A body is one block
    with no branches, so dominance is body order: a definition dominates
    every later position.  The optimizer phrases its redundancy-elimination
    legality as [def_dominates_use]. *)

open Vir

exception Not_ssa of string

(** Raises [Not_ssa] when a body or reduction operand reads a register that
    is undefined, defined by a store, or defined later than the use. *)
val check : Kernel.t -> unit

(** Dominance between positions of a body of [len] instructions: true iff
    [def] textually precedes [use] and both are in range. *)
val def_dominates_use : len:int -> def:int -> use:int -> bool

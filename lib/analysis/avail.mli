(** Available expressions / value numbering over the SSA body: one forward
    sweep assigns each position the earliest *dominating* position that
    computes the same value (its leader), with commutative operand pairs
    canonicalized and loads killed by intervening stores to their array.
    The GVN/CSE pass rewrites every position to its leader; [across] marks
    the expressions that survive the innermost back edge (LICM
    candidates). *)

open Vir

type t = {
  ssa : Ssa.t;
  leader : int array;
  avail_in : int array;
  across : bool array;
}

(** Builds the SSA view (checking well-formedness) and runs the sweep.
    Pass [?df] to share an existing dataflow analysis. *)
val analyze : ?df:Dataflow.t -> Kernel.t -> t

(** Earliest dominating position computing the same value. *)
val leader_of : t -> int -> int

(** True when the position recomputes an already-available value. *)
val redundant : t -> int -> bool

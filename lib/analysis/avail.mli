(** Available expressions / value numbering over the SSA body: one forward
    sweep assigns each position the earliest *dominating* position that
    computes the same value (its leader), with commutative operand pairs
    canonicalized and loads killed by intervening stores to their array.
    The GVN/CSE pass rewrites every position to its leader. *)

open Vir

type t

(** Checks SSA form (raising [Ssa.Not_ssa]), then runs the sweep. *)
val analyze : Kernel.t -> t

(** Earliest dominating position computing the same value. *)
val leader_of : t -> int -> int

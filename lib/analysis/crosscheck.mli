(** The cross-check over the (kernel, transform, VF) space: every
    configuration is forced, bypassing the legality oracle, and held to one
    obligation.  A kernel's configurations share one source memo (the
    reference run and the static regions at each size). *)

open Vir

type obligation =
  | Semantics
      (** LLV and SLP: multiset translation validation AND reference-
          interpreter equivalence at each of [Equiv.semantic_sizes]; must
          hold wherever the oracle admits the configuration. *)
  | Effects
      (** LLV, SLP and unroll: the transformed effects are statically
          subsumed by the source license and, for oracle-legal
          configurations, every traced access hits a licensed (array,
          direction) inside its static region; must hold for every
          configuration. *)

type verdict =
  | Holds
  | Refuted  (** [Semantics]: the validator or the interpreter disagrees *)
  | Escape of string  (** [Effects]: where the transformed effects escape *)
  | Inapplicable of string  (** the forced transform does not apply *)

type config = {
  c_kernel : string;
  c_transform : Driver.transform;
  c_vf : int;
  c_obligation : obligation;
  c_legal : bool;  (** whether the legality oracle admits the config *)
  c_verdict : verdict;
}

(** Parallel registry-wide sweep of the obligation's transforms at each of
    [vfs] (default 2, 4 and 8), in kernel, transform, VF order. *)
val run : obligation -> ?vfs:int list -> Kernel.t list -> config list

(** One configuration against a fresh source memo of its own. *)
val check : obligation -> Kernel.t -> Driver.transform -> vf:int -> config

(** The [Semantics] obligation for one vector kernel of the source. *)
val validates : Kernel.t -> Vvect.Vinstr.vkernel -> bool

(** Configurations the obligation binds ([tp], where it holds; [fp], where
    it fails: a soundness failure) and the others ([fn], [tn]: [Semantics]
    configurations the oracle refuses). *)
type stats = {
  st_tp : int;
  st_fp : int;
  st_fn : int;
  st_tn : int;
  st_inapplicable : int;
}

val stats : config list -> stats

(** Of the configurations the obligation binds, the fraction where it
    holds; soundness demands 1.0. *)
val precision : stats -> float

(** [Semantics]: of the configurations that hold, the fraction the oracle
    admits. *)
val recall : stats -> float

(** No configuration fails an obligation that binds it. *)
val sound : config list -> bool

(** The summary's JSON fields: [Semantics] counts tp/fp/fn/tn and reports
    recall, [Effects] counts stable configurations and escapes. *)
val summary_fields : obligation -> config list -> (string * Vjson.t) list

(** Each failing configuration on a line of its own, then the counts and
    the precision. *)
val print_summary : obligation -> out_channel -> config list -> unit

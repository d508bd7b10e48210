(** SSA-based scalar optimizer: the normalization pipeline the cost model's
    instruction counts are taken after.  Passes are built on [Ssa]
    (form checks), [Avail] (value numbering), [Dataflow]
    (liveness/invariance) and [Absint] (value ranges); each is
    value-preserving bit for bit and never grows the body, which
    [validate] checks per pass against the reference interpreter.
    Replaces the old [Vir.Simplify]. *)

open Vir

type pass = { p_name : string; p_run : Kernel.t -> Kernel.t }

val fold_pass : pass  (** reaching constants + integer algebraic identities *)

val gvn_pass : pass  (** value numbering / CSE in body order *)

val licm_pass : pass
(** hoist invariant instructions to the preheader prefix (code motion) *)

val strength_pass : pass
(** power-of-two multiplies to shifts; div/rem to shift/mask when the
    operand is provably non-negative *)

val dse_pass : pass  (** remove stores overwritten before any load *)

val dce_pass : pass  (** remove values reaching no store or reduction *)

val pipeline : pass list

(** Positions of stores overwritten by a later identical-address store with
    no intervening same-array load (what [dse_pass] removes and the
    [dead-store] lint reports). *)
val dead_stores : Kernel.t -> int list

(** Number of hoistable (innermost-loop-invariant, non-store) body
    instructions; after LICM these form a prefix of the body. *)
val hoisted_count : Kernel.t -> int

(** [hoisted_count] over the body length (0 on empty bodies). *)
val hoisted_fraction : Kernel.t -> float

(** Instruction-class vocabulary of [class_mix], fixed order. *)
val class_names : string list

(** Class -> count in [class_names] order, zeros included. *)
val class_mix : Kernel.t -> (string * int) list

type step = { st_pass : string; st_before : int; st_after : int }

type report = {
  rp_name : string;
  rp_original : Kernel.t;
  rp_normalized : Kernel.t;
  rp_steps : step list;
  rp_hoisted : int;
}

(** Run the full pipeline, recording the per-pass body-length deltas. *)
val run : Kernel.t -> report

(** [(run k).rp_normalized]. *)
val normalize : Kernel.t -> Kernel.t

val print_report : out_channel -> report -> unit
val report_to_json : report -> Vjson.t

(** Registry-wide sweeps over the shared domain pool (order-preserving). *)
val run_all : Kernel.t list -> report list

val validate_all : Kernel.t list -> Diag.t list list

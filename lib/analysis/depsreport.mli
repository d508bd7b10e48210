(** Dependence reporting ([vecmodel deps]) and the empirical soundness gate
    cross-checking the legality oracle against the translation validator
    plus the reference interpreter. *)

open Vir

(** One kernel's dependence story: the nest-wide graph and the legality
    verdict space (with idiom tags). *)
type summary = {
  s_kernel : string;
  s_graph : Vdeps.Depgraph.t;
  s_legality : Vdeps.Legality.t;
}

(** Registry-order-preserving parallel fan-out. *)
val summarize_kernels : Kernel.t list -> summary list

(** Deterministic JSON (edges are already canonically sorted). *)
val summary_to_json : summary -> Vjson.t

val print_summary : out_channel -> summary -> unit

(** Verdict for one (kernel, transform, VF) configuration of the
    cross-check.  [False_positive] — the oracle admitted a configuration
    the validator refutes — is the only soundness failure. *)
type verdict =
  | True_positive
  | False_positive
  | False_negative
  | True_negative
  | Inapplicable of string

type config = {
  c_kernel : string;
  c_transform : Driver.transform;
  c_vf : int;
  c_verdict : verdict;
}

(** Multiset translation validation AND interpreter equivalence at each of
    [Equiv.semantic_sizes] (reductions compared with relative tolerance). *)
val validates : Kernel.t -> Vvect.Vinstr.vkernel -> bool

val crosscheck_kernel : ?vfs:int list -> Kernel.t -> config list

(** Parallel registry-wide sweep over LLV and SLP at every factor. *)
val crosscheck : ?vfs:int list -> Kernel.t list -> config list

type stats = {
  st_tp : int;
  st_fp : int;
  st_fn : int;
  st_tn : int;
  st_inapplicable : int;
}

val stats : config list -> stats

(** Fraction of oracle-admitted configurations the validator confirms;
    soundness demands 1.0. *)
val precision : stats -> float

(** Fraction of actually-safe configurations the oracle admits. *)
val recall : stats -> float

val sound : config list -> bool
val failures : config list -> config list
val config_to_string : config -> string

(** Dependence reporting ([vecmodel deps]): the nest-wide graph, idiom tags
    and the legality verdict space.  {!Crosscheck} checks the oracle. *)

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

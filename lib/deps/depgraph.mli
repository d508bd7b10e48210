(** Nest-wide dependence graph with per-depth direction vectors.

    Edges are normalized so the source instance executes no later than the
    sink: the leading non-'=' direction entry is always '<', and distances
    are sink-minus-source iteration counts (positive at the carrying
    depth).  The innermost-loop legality oracle remains [Dependence]; this
    graph supplies nest-level structure — interchange direction vectors,
    per-depth carried classification, and the dependence feature columns. *)

open Vir

type carried =
  | Independent  (** same-iteration dependence at every depth *)
  | Carried of int  (** carried by the loop at this depth (0 = outermost) *)
  | Carried_unknown  (** carried, but the depth cannot be determined *)

type edge = {
  e_src : int;
  e_snk : int;
  e_array : string;
  e_kind : Dependence.kind;
  e_dirs : Subscript.direction array;  (** per depth, outermost first *)
  e_dist : int option array;  (** exact iteration distance per depth *)
  e_carried : carried;
  e_assumed : bool;  (** rests on index-array conflict freedom *)
}

type t = {
  g_kernel : Kernel.t;
  g_depth : int;
  g_loop_vars : string list;
  g_edges : edge list;
}

val carried_to_string : carried -> string
val build : Kernel.t -> t

(** Count of carried dependences per depth (unknown-depth edges charged to
    the innermost loop). *)
val carried_counts : t -> int array

(** Minimum carried distance over all carried edges (unknown distances
    count as 1); [None] when nothing is carried. *)
val min_carried_distance : t -> int option

val pp_edge : Format.formatter -> edge -> unit

(** Lint passes over the scalar IR.  Each consumes the shared dataflow
    facts and returns diagnostics; see [Pass] for the registry. *)

(** Non-store instructions whose value never reaches a store or
    reduction. *)
val dead_result : Dataflow.t -> Diag.t list

(** Repeated loads of the same address with no intervening store to that
    array (CSE opportunities that skew instruction-count features). *)
val redundant_load : Dataflow.t -> Diag.t list

(** Cast chains that narrow and then re-widen (losing precision) and no-op
    casts. *)
val lossy_cast : Dataflow.t -> Diag.t list

(** Statically out-of-bounds affine subscripts, checked against declared
    extents at witness problem sizes (wraps [Vir.Bounds]). *)
val out_of_bounds : Dataflow.t -> Diag.t list

(** Stores whose address is invariant in the innermost loop. *)
val invariant_store : Dataflow.t -> Diag.t list

(** Declared arrays never accessed by the body. *)
val unused_array : Dataflow.t -> Diag.t list

(** Declared scalar parameters never read. *)
val unused_param : Dataflow.t -> Diag.t list

(** Unit-stride accesses whose congruence proves every vector block at
    [misaligned_vf] starts off-lane. *)
val misaligned_access : Dataflow.t -> Diag.t list

(** Stores whose abstract value range only stabilized through widening:
    loop-carried recurrences with unbounded ranges. *)
val unbounded_recurrence : Dataflow.t -> Diag.t list

(** Stores overwritten by a later identical-address store before any load
    observes them (shares detection with [Opt.dead_stores]). *)
val dead_store : Dataflow.t -> Diag.t list

(** Live values identical on every innermost iteration: hoistable work left
    in the body (what [Opt]'s LICM moves to the preheader prefix). *)
val loop_invariant_compute : Dataflow.t -> Diag.t list

(** Warn, at each constraining dependence's sink, when loop-carried
    dependences cap the legal vectorization factor below the widest width. *)
val loop_carried_at_vf : Dataflow.t -> Diag.t list

(** Warn when the legality verdict rests on the conflict-free-subscripts
    assumption for indirect accesses ([Vdeps.Dependence.needs_runtime_assumption]). *)
val assumed_conflict_free : Dataflow.t -> Diag.t list

(** Error when the effect license may-writes an [Idx]-role array: index
    buffers alias the runtime's Frozen shared master, so a store either
    trips the frozen-write barrier or mutates subscript data. *)
val frozen_buffer_write : Dataflow.t -> Diag.t list

(** Warn when a may-write region escapes the effect license's affine
    regions: scatter (indirect) writes, or affine writes whose abstract
    flat-index range is unbounded after widening. *)
val effect_escape : Dataflow.t -> Diag.t list

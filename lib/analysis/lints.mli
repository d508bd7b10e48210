(** Lint passes over the scalar IR.  [run_all k] analyzes the dataflow
    facts of [k] once and runs every pass over them, in reporting order.
    Each diagnostic names its pass:

    - [dead-result]: non-store instructions whose value never reaches a
      store or reduction;
    - [redundant-load]: repeated loads of one address with no intervening
      store to that array (CSE opportunities that skew instruction-count
      features);
    - [lossy-cast]: cast chains that narrow and then re-widen, and no-op
      casts;
    - [out-of-bounds]: statically out-of-bounds affine subscripts, checked
      against declared extents at witness problem sizes ([Vir.Bounds]);
    - [invariant-store]: stores whose address is invariant in the
      innermost loop;
    - [unused-array] and [unused-param]: declared arrays never accessed and
      scalar parameters never read;
    - [misaligned-access]: unit-stride accesses whose congruence proves
      every vector block at the reference factor starts off-lane;
    - [unbounded-recurrence]: stores whose abstract value range only
      stabilized through widening;
    - [dead-store]: stores overwritten by a later identical-address store
      before any load observes them (the detection [Opt.dead_stores]
      shares);
    - [loop-invariant-compute]: hoistable work left in the body (what
      [Opt]'s LICM moves to the preheader prefix);
    - [loop-carried-at-vf]: dependences capping the legal vectorization
      factor below the widest width;
    - [assumed-conflict-free]: legality resting on the conflict-free
      subscripts assumption for indirect accesses;
    - [frozen-buffer-write]: an error when the effect license may-write an
      index array, which aliases the runtime's Frozen shared master;
    - [effect-escape]: may-write regions escaping the effect license's
      affine regions (scatter writes, or unbounded widened ranges). *)
val run_all : Vir.Kernel.t -> Diag.t list

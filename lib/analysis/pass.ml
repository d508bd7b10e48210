(* Pass registry for the scalar lints.

   Passes share one dataflow computation per kernel; [run_all] analyzes
   once and folds every pass over the facts. *)

type t = {
  name : string;
  descr : string;
  run : Dataflow.t -> Diag.t list;
}

let builtin : t list =
  [
    { name = "dead-result";
      descr = "instruction results never used by a store or reduction";
      run = Lints.dead_result };
    { name = "redundant-load";
      descr = "repeated loads of one address with no intervening store";
      run = Lints.redundant_load };
    { name = "lossy-cast";
      descr = "cast chains that narrow then re-widen, and no-op casts";
      run = Lints.lossy_cast };
    { name = "out-of-bounds";
      descr = "affine subscripts outside the declared array extents";
      run = Lints.out_of_bounds };
    { name = "invariant-store";
      descr = "stores to innermost-loop-invariant addresses";
      run = Lints.invariant_store };
    { name = "unused-array";
      descr = "declared arrays never accessed";
      run = Lints.unused_array };
    { name = "unused-param";
      descr = "declared scalar parameters never read";
      run = Lints.unused_param };
    { name = "misaligned-access";
      descr = "unit strides provably off-lane at the reference vector factor";
      run = Lints.misaligned_access };
    { name = "unbounded-recurrence";
      descr = "stores whose value range needs widening (unbounded recurrence)";
      run = Lints.unbounded_recurrence };
    { name = "dead-store";
      descr = "stores overwritten before any load observes them";
      run = Lints.dead_store };
    { name = "loop-invariant-compute";
      descr = "hoistable loop-invariant work left in the body";
      run = Lints.loop_invariant_compute };
    { name = "loop-carried-at-vf";
      descr = "dependences capping the legal vectorization factor";
      run = Lints.loop_carried_at_vf };
    { name = "assumed-conflict-free";
      descr = "legality resting on assumed conflict-free index arrays";
      run = Lints.assumed_conflict_free };
    { name = "frozen-buffer-write";
      descr = "effect license may-writes a Frozen index master buffer";
      run = Lints.frozen_buffer_write };
    { name = "effect-escape";
      descr = "may-write regions escaping the effect license's affine bounds";
      run = Lints.effect_escape };
  ]

let find name = List.find_opt (fun p -> String.equal p.name name) builtin

(* Run one pass standalone (recomputes the facts). *)
let run_pass p (k : Vir.Kernel.t) = p.run (Dataflow.analyze k)

(* Run every pass over one shared dataflow analysis. *)
let run_all (k : Vir.Kernel.t) : Diag.t list =
  let df = Dataflow.analyze k in
  List.concat_map (fun p -> p.run df) builtin

(* Lint passes over the scalar IR.

   Each pass takes the shared dataflow facts and returns diagnostics;
   [run_all] analyzes a kernel once and folds every pass over the facts.  The
   lints target exactly the defects that skew the paper's cost-model
   features: a dead or redundant instruction changes the instruction-class
   counts the models are fitted over, an out-of-bounds subscript makes the
   simulated measurements meaningless, and an invariant store blocks
   vectorization altogether.

   Severity policy: anything that invalidates measurements or IR semantics
   is an [Error]; shape defects that merely skew features are [Warning];
   stylistic redundancy is [Info]. *)

open Vir

let kname (df : Dataflow.t) = df.kernel.Kernel.name

(* --- dead instruction results ------------------------------------------- *)

(* A non-store instruction whose value never reaches a store or a reduction
   contributes to every instruction-count feature but not to the kernel's
   observable effect. *)
let dead_result (df : Dataflow.t) =
  let out = ref [] in
  Array.iteri
    (fun pos instr ->
      if (not (Instr.is_store instr)) && not df.live.(pos) then
        out :=
          Diag.warning ~pass:"dead-result" ~kernel:(kname df) ~pos
            "result r%d is never used by a store or reduction" pos
          :: !out)
    df.body;
  List.rev !out

(* --- redundant loads ----------------------------------------------------- *)

(* Two loads of the same address with no intervening store to that array
   read the same value: a CSE opportunity that inflates the load counts the
   rated features are built from.  Addresses compare syntactically after
   canonicalizing operands through earlier merges, the load rule of
   [Avail]'s value numbering. *)
let redundant_load (df : Dataflow.t) =
  let n = Array.length df.body in
  let seen : (Instr.t, int) Hashtbl.t = Hashtbl.create 8 in
  let store_seen : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let merged = Array.make n None in
  let out = ref [] in
  for pos = 0 to n - 1 do
    let instr =
      Instr.map_operands
        (function
          | Instr.Reg r as op -> (
              match merged.(r) with Some t -> Instr.Reg t | None -> op)
          | op -> op)
        df.body.(pos)
    in
    match instr with
    | Instr.Store { addr; _ } ->
        Hashtbl.replace store_seen (Instr.addr_array addr) pos
    | Instr.Load { addr; _ } -> (
        let arr = Instr.addr_array addr in
        match Hashtbl.find_opt seen instr with
        | Some prev
          when (match Hashtbl.find_opt store_seen arr with
               | Some s -> s < prev
               | None -> true) ->
            merged.(pos) <- Some prev;
            out :=
              Diag.warning ~pass:"redundant-load" ~kernel:(kname df) ~pos
                "load of %s repeats instruction %d with no intervening store"
                arr prev
              :: !out
        | _ -> Hashtbl.replace seen instr pos)
    | _ -> ()
  done;
  List.rev !out

(* --- lossy cast chains ---------------------------------------------------- *)

(* The value range of an operand at one body position, from the shared
   abstract-interpretation summary; top when intervals say nothing. *)
let operand_interval (summary : Absint.summary) = function
  | Instr.Reg r -> summary.Absint.s_regs.(r)
  | Instr.Imm_int i -> Interval.const (float_of_int i)
  | Instr.Imm_float f -> Interval.const f
  | Instr.Index _ | Instr.Param _ -> Interval.top

(* Can every value in [iv] round-trip through the middle type [mid] without
   loss?  For an integer-typed source the whole range just has to fit the
   middle type; a float-typed source needs a provably integral (constant)
   value, since truncation drops any fractional part. *)
let fits_middle ~src mid (iv : Interval.t) =
  let lo = iv.Interval.lo and hi = iv.Interval.hi in
  let integral_const = lo = hi && Float.is_integer lo in
  let int_source = Types.is_int src || integral_const in
  match mid with
  | Types.I64 -> int_source
  | Types.I32 ->
      int_source && lo >= -2147483648.0 && hi <= 2147483647.0
  | Types.F32 ->
      (* Integers of magnitude < 2^24 are exact in binary32. *)
      int_source && lo > -16777216.0 && hi < 16777216.0
  | Types.F64 -> Types.is_int src

let lossy_cast (df : Dataflow.t) =
  let summary =
    lazy (Absint.analyze ~n:Absint.default_n df.Dataflow.kernel)
  in
  let out = ref [] in
  Array.iteri
    (fun pos instr ->
      match instr with
      | Instr.Cast { src_ty; dst_ty; a } ->
          if Types.equal_scalar src_ty dst_ty then
            out :=
              Diag.info ~pass:"lossy-cast" ~kernel:(kname df) ~pos
                "no-op cast %s -> %s" (Types.to_string src_ty)
                (Types.to_string dst_ty)
              :: !out;
          (match a with
          | Instr.Reg r -> (
              match df.body.(r) with
              | Instr.Cast { src_ty = s0; dst_ty = s1; _ }
                when Types.equal_scalar s1 src_ty ->
                  (* Chain s0 -> s1 -> dst_ty: lossy when the middle type
                     cannot represent every value of the origin type but the
                     destination could. *)
                  let narrows =
                    Types.size_bytes s1 < Types.size_bytes s0
                    || (Types.is_float s0 && Types.is_int s1)
                  in
                  let rewidens =
                    Types.size_bytes dst_ty > Types.size_bytes s1
                    || (Types.is_float dst_ty && Types.is_int s1)
                  in
                  let provably_exact =
                    match df.body.(r) with
                    | Instr.Cast { a = inner_src; _ } ->
                        fits_middle ~src:s0 s1
                          (operand_interval (Lazy.force summary) inner_src)
                    | _ -> false
                  in
                  if narrows && rewidens && not provably_exact then
                    out :=
                      Diag.warning ~pass:"lossy-cast" ~kernel:(kname df) ~pos
                        "cast chain %s -> %s -> %s loses precision in the \
                         middle type"
                        (Types.to_string s0) (Types.to_string s1)
                        (Types.to_string dst_ty)
                      :: !out
              | _ -> ())
          | _ -> ())
      | _ -> ())
    df.body;
  List.rev !out

(* --- out-of-bounds affine subscripts -------------------------------------- *)

(* Delegates to the witness-size bounds analysis.  The corner evaluation is
   exact, so verdicts are sound: a [Proven] violation means running the
   kernel traps at a real iteration under the interpreter's default
   bindings (an error), while [Possible] only manifests for some parameter
   values inside the environment contract (a warning).  One diagnostic per
   access, preferring the proven witness.

   The relational prover's safety certificate refines the [Possible] tier:
   an access it certifies [Vsafe] is in-bounds for *every* parameter
   assignment inside the contract, so the parameter-dependent warning is
   noise and is silenced; an access it refutes ([Vunsafe]) is upgraded to
   an error.  In theory the exact corner evaluation and a sound prover can
   never disagree — the silence path is an anti-drift safety net, and the
   disagreement itself would be the bug worth hearing about. *)
let out_of_bounds (df : Dataflow.t) =
  let classified = Bounds.classify df.kernel in
  let cert_verdict =
    lazy
      (let c = Cert.certify df.kernel in
       let tbl = Hashtbl.create 8 in
       Array.iter
         (fun (a : Cert.access_cert) ->
           Hashtbl.replace tbl a.Cert.ac_pos a.Cert.ac_verdict)
         c.Cert.ct_accesses;
       tbl)
  in
  let by_pos : (int, Bounds.classified) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (c : Bounds.classified) ->
      let pos = c.Bounds.c_violation.Bounds.v_pos in
      match Hashtbl.find_opt by_pos pos with
      | Some prev when prev.Bounds.c_verdict = Bounds.Proven -> ()
      | Some _ when c.Bounds.c_verdict = Bounds.Proven ->
          Hashtbl.replace by_pos pos c
      | Some _ -> ()
      | None -> Hashtbl.add by_pos pos c)
    classified;
  Hashtbl.fold (fun pos c acc -> (pos, c) :: acc) by_pos []
  |> List.sort compare
  |> List.filter_map (fun (pos, (c : Bounds.classified)) ->
         let v = c.Bounds.c_violation in
         let text = Format.asprintf "%a" Bounds.pp_violation v in
         match c.Bounds.c_verdict with
         | Bounds.Proven ->
             Some
               (Diag.error ~pass:"out-of-bounds" ~kernel:(kname df) ~pos
                  "proven: %s" text)
         | Bounds.Possible -> (
             match Hashtbl.find_opt (Lazy.force cert_verdict) pos with
             | Some Cert.Vsafe -> None
             | Some Cert.Vunsafe ->
                 Some
                   (Diag.error ~pass:"out-of-bounds" ~kernel:(kname df) ~pos
                      "refuted by safety certificate: %s" text)
             | Some Cert.Vunknown | None ->
                 Some
                   (Diag.warning ~pass:"out-of-bounds" ~kernel:(kname df) ~pos
                      "possible (parameter-dependent, not certified): %s" text)))

(* --- stores to loop-invariant addresses ------------------------------------ *)

(* Writing the same location every iteration makes the loop body
   order-dependent (last write wins) and is exactly what [Llv] rejects with
   [Invariant_store]; flag it before the vectorizer does. *)
let invariant_store (df : Dataflow.t) =
  let out = ref [] in
  Array.iteri
    (fun pos instr ->
      match instr with
      | Instr.Store { addr; _ } when Dataflow.addr_invariant df addr ->
          out :=
            Diag.warning ~pass:"invariant-store" ~kernel:(kname df) ~pos
              "store to %s writes a loop-invariant address (blocks \
               vectorization)"
              (Instr.addr_array addr)
            :: !out
      | _ -> ())
    df.body;
  List.rev !out

(* --- unused declarations ---------------------------------------------------- *)

let unused_array (df : Dataflow.t) =
  let k = df.kernel in
  let accessed = Hashtbl.create 8 in
  Array.iter
    (fun instr ->
      match Instr.accessed_array instr with
      | Some a -> Hashtbl.replace accessed a ()
      | None -> ())
    df.body;
  List.filter_map
    (fun (d : Kernel.array_decl) ->
      if Hashtbl.mem accessed d.arr_name then None
      else
        Some
          (Diag.warning ~pass:"unused-array" ~kernel:(kname df)
             "array %s is declared but never accessed" d.arr_name))
    k.Kernel.arrays

let unused_param (df : Dataflow.t) =
  let k = df.kernel in
  let used = Hashtbl.create 4 in
  let mark_op = function
    | Instr.Param p -> Hashtbl.replace used p ()
    | _ -> ()
  in
  let mark_dim (d : Instr.dim) =
    List.iter (fun (p, _) -> Hashtbl.replace used p ()) d.Instr.pterms
  in
  let mark_addr = function
    | Instr.Affine { dims; _ } -> List.iter mark_dim dims
    | Instr.Indirect { idx; _ } -> mark_op idx
  in
  Array.iter
    (fun instr ->
      List.iter mark_op (Instr.operands instr);
      match instr with
      | Instr.Load { addr; _ } | Instr.Store { addr; _ } -> mark_addr addr
      | _ -> ())
    df.body;
  List.iter (fun (r : Kernel.reduction) -> mark_op r.red_src) k.reductions;
  List.filter_map
    (fun p ->
      if Hashtbl.mem used p then None
      else
        Some
          (Diag.warning ~pass:"unused-param" ~kernel:(kname df)
             "parameter %s is declared but never read" p))
    k.Kernel.params

(* --- provably misaligned unit-stride accesses ------------------------------- *)

(* A unit-stride access whose flat-index congruence pins a residue class mod
   the reference vector factor that is not the aligned one: every vector
   block the vectorizer would form starts off-lane, so the access pays the
   unaligned path on every machine that distinguishes it.  Accesses whose
   residue the congruences cannot pin are left alone — only *provable*
   misalignment is reported. *)
let misaligned_vf = 4

let misaligned_access (df : Dataflow.t) =
  let summary =
    Absint.analyze ~vf:misaligned_vf ~n:Absint.default_n df.Dataflow.kernel
  in
  (* The safety certificate records the same residue computation; note when
     the access is otherwise certified in-bounds so the reader knows the
     misalignment is the only cost left, not a safety problem.  Severity
     stays [Warning] either way: misalignment skews the cost features but
     never invalidates the measurement. *)
  let cert = lazy (Cert.certify ~vf:misaligned_vf df.kernel) in
  let certified_safe pos =
    Array.exists
      (fun (a : Cert.access_cert) ->
        a.Cert.ac_pos = pos && a.Cert.ac_verdict = Cert.Vsafe)
      (Lazy.force cert).Cert.ct_accesses
  in
  List.filter_map
    (fun (ai : Absint.access_info) ->
      match ai.Absint.ai_class with
      | Absint.Unaligned -> (
          match Congr.residue_mod ai.Absint.ai_congr ~k:misaligned_vf with
          | Some r ->
              Some
                (Diag.warning ~pass:"misaligned-access" ~kernel:(kname df)
                   ~pos:ai.Absint.ai_pos
                   "%s of %s is provably misaligned at vf=%d (block starts \
                    in residue class %d)%s"
                   (if ai.Absint.ai_store then "store" else "load")
                   ai.Absint.ai_arr misaligned_vf r
                   (if certified_safe ai.Absint.ai_pos then
                      "; certified in-bounds, misalignment is the only cost"
                    else ""))
          | None -> None)
      | _ -> None)
    summary.Absint.s_accesses

(* --- recurrences the intervals cannot bound ---------------------------------- *)

(* A store position whose array interval only stabilized through widening
   carries a loop-carried recurrence with an unbounded value range: sums
   that grow every iteration, running products, prefix scans.  Flag it —
   these kernels are exactly where fixed-width value-range reasoning (and
   any optimization leaning on it) gives up. *)
let unbounded_recurrence (df : Dataflow.t) =
  let summary = Absint.analyze ~n:Absint.default_n df.Dataflow.kernel in
  List.map
    (fun pos ->
      Diag.warning ~pass:"unbounded-recurrence" ~kernel:(kname df) ~pos
        "store feeds a loop-carried recurrence whose value range required \
         widening (unbounded across iterations)")
    summary.Absint.s_widened

(* --- dead stores -------------------------------------------------------------- *)

(* A store overwritten by a later identical-address store before any load of
   the array observes it contributes a store-class feature count (and a
   simulated memory access) for work the compiled loop would never do.
   Detection is shared with the optimizer's DSE pass. *)
let dead_store (df : Dataflow.t) =
  List.map
    (fun pos ->
      let arr =
        match df.body.(pos) with
        | Instr.Store { addr; _ } -> Instr.addr_array addr
        | _ -> "?"
      in
      Diag.warning ~pass:"dead-store" ~kernel:(kname df) ~pos
        "store to %s is overwritten before any load observes it" arr)
    (List.sort compare (Opt.dead_stores df.kernel))

(* --- loop-invariant computation left in the body ------------------------------- *)

(* Live work whose value is the same on every innermost iteration: a real
   compiler hoists it to the preheader, so leaving it in the body inflates
   every per-iteration instruction count the cost model is fitted over.
   Exactly the positions [Opt]'s LICM moves to the preheader prefix. *)
let loop_invariant_compute (df : Dataflow.t) =
  let out = ref [] in
  Array.iteri
    (fun pos instr ->
      if df.invariant.(pos) && df.live.(pos) then
        out :=
          Diag.warning ~pass:"loop-invariant-compute" ~kernel:(kname df) ~pos
            "%s is innermost-loop invariant (hoistable to the preheader)"
            (if Instr.is_load instr then "load" else "computation")
          :: !out)
    df.body;
  List.rev !out

(* --- dependence-limited vectorization ------------------------------------------ *)

(* The legality oracle caps the vectorization factor below the widest machine
   width: every dependence that constrains the verdict is named, at its sink,
   with the exact iteration distance.  This makes a silent [Max_vf] cap (the
   single most common reason a loop "mysteriously" fails to vectorize at the
   profitable width) visible in the lint report. *)
let loop_carried_at_vf (df : Dataflow.t) =
  match Vdeps.Dependence.vf_limit df.Dataflow.kernel with
  | Vdeps.Dependence.Unlimited -> []
  | Vdeps.Dependence.Max_vf m ->
      Vdeps.Dependence.analyze df.Dataflow.kernel
      |> List.filter Vdeps.Dependence.constrains
      |> List.map (fun (d : Vdeps.Dependence.dep) ->
             Diag.warning ~pass:"loop-carried-at-vf" ~kernel:(kname df)
               ~pos:d.snk_pos
               "%s dependence on %s (distance %s) caps the legal \
                vectorization factor at %d"
               (Vdeps.Dependence.kind_to_string d.kind)
               d.array
               (Vdeps.Dependence.distance_to_string d.distance)
               m)

(* --- legality resting on unproven aliasing ------------------------------------- *)

(* Indirect (gather/scatter) subscripts are assumed conflict-free by the
   oracle — the same contract a compiler discharges with a runtime alias
   check.  Surface the assumption so it is never silent: a dataset built
   from such a kernel embeds the assumption in every derived feature. *)
let assumed_conflict_free (df : Dataflow.t) =
  if not (Vdeps.Dependence.needs_runtime_assumption df.Dataflow.kernel) then []
  else
    Vdeps.Dependence.analyze df.Dataflow.kernel
    |> List.filter (fun (d : Vdeps.Dependence.dep) -> d.assumed)
    |> List.map (fun (d : Vdeps.Dependence.dep) ->
           Diag.warning ~pass:"assumed-conflict-free" ~kernel:(kname df)
             ~pos:d.snk_pos
             "legality assumes index expressions on %s never conflict \
              (would need a runtime alias check)"
             d.array)

(* --- ownership-discipline violations ------------------------------------- *)

(* First store (affine or scatter) naming [arr], for diagnostic anchoring. *)
let first_store_pos (df : Dataflow.t) arr =
  let pos = ref 0 in
  Array.iteri
    (fun i instr ->
      match instr with
      | Instr.Store { addr; _ }
        when !pos = 0 && String.equal (Instr.addr_array addr) arr ->
          pos := i
      | _ -> ())
    df.body;
  !pos

(* Index arrays hold the subscript permutations gather/scatter draw from;
   the runtime's ownership discipline keeps them [Frozen] — aliased to the
   process-wide master — in every environment.  A kernel whose effect
   license may-writes one either trips the frozen-write barrier at runtime
   or forces a private copy whose mutated subscripts no longer describe
   the dataset the cost model was fitted over.  Either way the kernel's
   measurements are meaningless, hence [Error]. *)
let frozen_buffer_write (df : Dataflow.t) =
  let license = Vexec.Effects.of_kernel df.Dataflow.kernel in
  df.Dataflow.kernel.Kernel.arrays
  |> List.filter_map (fun (d : Kernel.array_decl) ->
         match d.arr_role with
         | Kernel.Idx when Vexec.Effects.may_write license d.arr_name ->
             Some
               (Diag.error ~pass:"frozen-buffer-write" ~kernel:(kname df)
                  ~pos:(first_store_pos df d.arr_name)
                  "store to index array %s violates the ownership \
                   discipline (index buffers alias the Frozen shared \
                   master)"
                  d.arr_name)
         | _ -> None)

(* --- may-write regions the effect license cannot bound -------------------- *)

(* The effect license is only as sharp as its regions: a scatter write has
   no affine region at all, and a write whose abstract flat-index range
   needed widening is unbounded.  Both escape the per-array region the
   cross-check ([Analysis.Effect]) can verify trace containment against,
   so downstream consumers fall back to whole-array ownership.  The write
   regions are joined here straight from the abstract-interpretation
   accesses ([Effect.regions] does the same join, but through [Driver],
   which would close a module cycle with [run_all]). *)
let effect_escape (df : Dataflow.t) =
  let k = df.Dataflow.kernel in
  let license = Vexec.Effects.of_kernel k in
  let write_range =
    lazy
      (let summary = Absint.analyze ~n:Absint.default_n k in
       let tbl = Hashtbl.create 8 in
       List.iter
         (fun (a : Absint.access_info) ->
           if a.ai_store then
             let r =
               match Hashtbl.find_opt tbl a.ai_arr with
               | Some r -> Interval.join r a.ai_range
               | None -> a.ai_range
             in
             Hashtbl.replace tbl a.ai_arr r)
         summary.Absint.s_accesses;
       tbl)
  in
  license.Vexec.Effects.ef_entries
  |> List.filter_map (fun (e : Vexec.Effects.entry) ->
         if not e.e_write then None
         else if e.e_write_indirect then
           Some
             (Diag.warning ~pass:"effect-escape" ~kernel:(kname df)
                ~pos:(first_store_pos df e.e_array)
                "scatter writes to %s escape any affine region (whole-array \
                 may-write in the effect license)"
                e.e_array)
         else
           match Hashtbl.find_opt (Lazy.force write_range) e.e_array with
           | Some r when not (Interval.is_bounded r) ->
               Some
                 (Diag.warning ~pass:"effect-escape" ~kernel:(kname df)
                    ~pos:(first_store_pos df e.e_array)
                    "may-write region of %s is unbounded at n=%d (widened \
                     subscript range escapes the effect license)"
                    e.e_array Absint.default_n)
           | _ -> None)

(* --- the registry ----------------------------------------------------------- *)

(* Reporting order. *)
let builtin =
  [ dead_result; redundant_load; lossy_cast; out_of_bounds; invariant_store;
    unused_array; unused_param; misaligned_access; unbounded_recurrence;
    dead_store; loop_invariant_compute; loop_carried_at_vf;
    assumed_conflict_free; frozen_buffer_write; effect_escape ]

let run_all (k : Kernel.t) =
  let df = Dataflow.analyze k in
  List.concat_map (fun run -> run df) builtin

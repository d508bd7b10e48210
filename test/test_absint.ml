(* Soundness of the abstract-interpretation engine against the reference
   interpreter, plus the registry-wide gates the acceptance criteria
   require: every concrete value the interpreter observes lies in the
   computed interval, every touched element index in a predicted access
   range, every alignment claim holds at actual block starts — over 200+
   random synthesized kernels and the full TSVC + application registries —
   and lint reports are byte-stable across worker counts. *)

open Vir
module A = Vanalysis
module I = Vinterp.Interp
module E = Vinterp.Env

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- interval / congruence unit properties --------------------------------- *)

let test_interval_ops () =
  let iv = A.Interval.of_ints 2 7 in
  check "contains 5" true (A.Interval.contains_int iv 5);
  check "excludes 8" false (A.Interval.contains_int iv 8);
  let s = A.Interval.add_int iv (A.Interval.of_ints 1 1) in
  check "add shifts" true
    (A.Interval.contains_int s 3 && A.Interval.contains_int s 8);
  let w = A.Interval.widen ~prev:iv ~next:(A.Interval.of_ints 2 9) in
  check "widen blows the growing bound" true
    (A.Interval.contains_int w 1_000_000);
  check "widen keeps the stable bound" false (A.Interval.contains_int w 1);
  (* integral bounds stay exact: no outward ulp step below 2^53 *)
  let z = A.Interval.mul_int (A.Interval.of_ints 0 1023) (A.Interval.of_ints 1 1) in
  check "exact integral bounds" true
    (A.Interval.contains_int z 0 && not (A.Interval.contains_int z (-1)))

let test_interval_sound_prop =
  QCheck.Test.make ~count:200 ~name:"interval int ops contain concrete results"
    QCheck.(triple (int_range (-50) 50) (int_range (-50) 50) (int_range 1 9))
    (fun (a, b, m) ->
      let ia = A.Interval.of_ints (min a b) (max a b) in
      let ib = A.Interval.of_ints 1 m in
      (* every concrete pair inside the boxes lands inside the abstract op *)
      let ok = ref true in
      for x = min a b to max a b do
        for y = 1 to m do
          ok :=
            !ok
            && A.Interval.contains_int (A.Interval.add_int ia ib) (x + y)
            && A.Interval.contains_int (A.Interval.mul_int ia ib) (x * y)
            && A.Interval.contains_int (A.Interval.div_int ia ib) (x / y)
            && A.Interval.contains_int (A.Interval.rem_int ia ib) (x mod y)
        done
      done;
      !ok)

let test_congr_residue () =
  let c = A.Congr.make 8 3 in
  check "residue mod 4 of 8Z+3" true (A.Congr.residue_mod c ~k:4 = Some 3);
  check "residue mod 3 unknown" true (A.Congr.residue_mod c ~k:3 = None);
  check "const residue" true
    (A.Congr.residue_mod (A.Congr.const 10) ~k:4 = Some 2)

let test_trip_count () =
  let tc trip = A.Absint.trip_count ~n:64 { Kernel.var = "i"; trip; start = 0; step = 1 } in
  check "const trip" true (tc (Kernel.Tconst 5) = A.Absint.Tc_const 5);
  check "linear trip" true (tc Kernel.Tn = A.Absint.Tc_linear 64);
  check "offset linear trip" true (tc (Kernel.Tn_minus 1) = A.Absint.Tc_linear 63)

(* --- soundness harness ------------------------------------------------------ *)

(* Run the interpreter on [k] under the absint summary at the same size and
   collect every containment violation: register values outside their
   interval, element accesses outside every predicted range for that
   (array, direction).  An interpreter exception (e.g. integer division by
   zero on an adversarial kernel) ends the run early; violations observed
   before it still count. *)
let soundness_violations ?vf ~n k =
  let s = A.Absint.analyze ?vf ~n k in
  let bad = ref [] in
  let note fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  let observe pos v =
    let iv = s.A.Absint.s_regs.(pos) in
    let f =
      match v with
      | I.V_float f -> f
      | I.V_int i -> float_of_int i
      | I.V_bool b -> if b then 1.0 else 0.0
    in
    if not (A.Interval.contains iv f) then
      note "reg %d: concrete %.17g outside %s" pos f (A.Interval.to_string iv)
  in
  let env = E.create ~n k in
  E.set_trace env (fun arr idx is_write ->
      let predicted =
        List.exists
          (fun ai ->
            ai.A.Absint.ai_arr = arr
            && ai.A.Absint.ai_store = is_write
            && A.Interval.contains_int ai.A.Absint.ai_range idx)
          s.A.Absint.s_accesses
      in
      if not predicted then
        note "%s[%d] (%s): outside every predicted range" arr idx
          (if is_write then "store" else "load"));
  (try ignore (I.run_in ~observe env k) with _ -> ());
  List.rev !bad

(* Alignment claims: for every access classified [Aligned] at [vf], the vf
   lanes of every full block must cover exactly one aligned group of vf
   consecutive flat indices; a provably-misaligned claim (a single residue
   class for the block start) must match the actual block starts. *)
let alignment_violations ~vf ~n k =
  let s = A.Absint.analyze ~vf ~n k in
  let env = E.create ~n k in
  let inner = Kernel.innermost k in
  let iters = Kernel.iterations ~n inner in
  let outer =
    List.filter_map
      (fun (l : Kernel.loop) ->
        if l.Kernel.var = inner.Kernel.var then None
        else Some (l.Kernel.var, l.Kernel.start))
      k.Kernel.loops
  in
  let all_outer_execute =
    List.for_all (fun (l : Kernel.loop) -> Kernel.iterations ~n l > 0) k.Kernel.loops
  in
  let bad = ref [] in
  let note fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  if all_outer_execute then
    List.iter
      (fun ai ->
        let dims =
          match List.nth k.Kernel.body ai.A.Absint.ai_pos with
          | Instr.Load { addr = Instr.Affine { dims; _ }; _ }
          | Instr.Store { addr = Instr.Affine { dims; _ }; _ } ->
              Some dims
          | _ -> None
        in
        match (dims, ai.A.Absint.ai_class) with
        | Some dims, A.Absint.Aligned ->
            for b = 0 to (iters / vf) - 1 do
              let flats =
                List.init vf (fun l ->
                    let ival =
                      inner.Kernel.start + ((b * vf) + l) * inner.Kernel.step
                    in
                    I.flat_index env ((inner.Kernel.var, ival) :: outer) dims)
              in
              let lo = List.fold_left min (List.hd flats) flats in
              let hi = List.fold_left max (List.hd flats) flats in
              if lo mod vf <> 0 || hi - lo <> vf - 1 then
                note "%s @%d: block %d covers [%d,%d], not one aligned group"
                  ai.A.Absint.ai_arr ai.A.Absint.ai_pos b lo hi
            done
        | Some dims, A.Absint.Unaligned -> (
            match A.Congr.residue_mod ai.A.Absint.ai_congr ~k:vf with
            | None -> ()
            | Some r ->
                for b = 0 to (iters / vf) - 1 do
                  let ival = inner.Kernel.start + (b * vf * inner.Kernel.step) in
                  let flat =
                    I.flat_index env ((inner.Kernel.var, ival) :: outer) dims
                  in
                  if ((flat mod vf) + vf) mod vf <> r then
                    note "%s @%d: block %d starts at %d, not residue %d mod %d"
                      ai.A.Absint.ai_arr ai.A.Absint.ai_pos b flat r vf
                done)
        | _ -> ())
      s.A.Absint.s_accesses;
  List.rev !bad

let soundness_n = 64

(* --- qcheck: random synthesized kernels ------------------------------------- *)

let test_absint_sound_prop =
  QCheck.Test.make ~count:220 ~name:"absint sound on random kernels"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let k = Vsynth.Generator.kernel seed in
      match soundness_violations ~n:soundness_n k with
      | [] -> true
      | v :: _ -> QCheck.Test.fail_reportf "%s: %s" k.Kernel.name v)

let test_absint_aligned_prop =
  QCheck.Test.make ~count:220 ~name:"absint alignment claims hold on random kernels"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let k = Vsynth.Generator.kernel seed in
      match alignment_violations ~vf:4 ~n:soundness_n k with
      | [] -> true
      | v :: _ -> QCheck.Test.fail_reportf "%s: %s" k.Kernel.name v)

let test_absint_sound_dep_prop =
  QCheck.Test.make ~count:120 ~name:"absint sound on dependence-stress kernels"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let k = Vsynth.Generator.dep_kernel seed in
      match soundness_violations ~n:soundness_n k with
      | [] -> true
      | v :: _ -> QCheck.Test.fail_reportf "%s: %s" k.Kernel.name v)

(* --- the registry-wide gate -------------------------------------------------- *)

(* Acceptance criterion: zero proven out-of-bounds accesses and zero
   absint-vs-interpreter soundness violations across the whole TSVC and
   application registries, checked in parallel on the shared pool. *)
let test_registry_absint_gate () =
  let entries =
    Tsvc.Registry.all @ Tsvc.Registry.typed_extension
    @ Vapps.Registry.as_tsvc_entries
  in
  let results =
    Vpar.Pool.parallel_map
      (fun (e : Tsvc.Registry.entry) ->
        let proven =
          List.filter
            (fun c -> c.Bounds.c_verdict = Bounds.Proven)
            (Bounds.classify e.kernel)
        in
        let sound = soundness_violations ~vf:4 ~n:32 e.kernel in
        let aligned = alignment_violations ~vf:4 ~n:32 e.kernel in
        (e.kernel.Kernel.name, proven, sound @ aligned))
      entries
  in
  check "registries non-trivial" true (List.length results > 150);
  List.iter
    (fun (name, proven, violations) ->
      (match proven with
      | [] -> ()
      | c :: _ ->
          Alcotest.failf "%s: proven out-of-bounds: %s" name
            (Format.asprintf "%a" Bounds.pp_violation c.Bounds.c_violation));
      match violations with
      | [] -> ()
      | v :: _ -> Alcotest.failf "%s: %s" name v)
    results

(* Aligned fraction and trip flag feed the feature extractor: spot-check
   their values on kernels whose structure we know. *)
let test_feature_columns () =
  let get name =
    match Tsvc.Registry.find name with
    | Some e -> e.Tsvc.Registry.kernel
    | None -> Alcotest.failf "missing kernel %s" name
  in
  (* s000: a[i] = b[i] + 1 — both accesses provably aligned at vf=4. *)
  Alcotest.(check (float 1e-9))
    "s000 fully aligned" 1.0
    (A.Absint.aligned_fraction ~n:1024 ~vf:4 (get "s000"));
  (* s1244: reads a[i+1] — not every access aligned. *)
  check "s1244 not fully aligned" true
    (A.Absint.aligned_fraction ~n:1024 ~vf:4 (get "s1244") < 1.0);
  check "s000 trip is size-dependent" true
    (A.Absint.const_trip_flag (get "s000") = 0.0)

(* --- determinism across worker counts ---------------------------------------- *)

(* Acceptance criterion: lint --all output is byte-stable whatever
   VECMODEL_JOBS says — run the driver sequentially and with the parallel
   pool and compare the full JSON reports. *)
let test_lint_determinism () =
  let ks =
    List.filteri (fun i _ -> i < 12) Tsvc.Registry.kernels
  in
  let was = Vpar.Pool.sequential () in
  Fun.protect
    ~finally:(fun () -> Vpar.Pool.set_sequential was)
    (fun () ->
      Vpar.Pool.set_sequential true;
      let render () =
        Vjson.to_string
          (Vjson.List (List.map A.Driver.report_to_json (A.Driver.lint_kernels ks)))
      in
      let seq = render () in
      Vpar.Pool.set_sequential false;
      let par = render () in
      Alcotest.(check string) "reports byte-stable across jobs" seq par;
      check_int "one report per kernel" (List.length ks)
        (List.length (A.Driver.lint_kernels ks)))

(* Canonicalization itself: order-insensitive and duplicate-free. *)
let test_diag_canonical () =
  let d pass pos =
    A.Diag.make ~pass ~severity:A.Diag.Warning ~kernel:"k" ~pos "m"
  in
  let a = [ d "b" 2; d "a" 1; d "a" 1; d "c" 3 ] in
  let b = [ d "c" 3; d "a" 1; d "b" 2; d "a" 1; d "a" 1 ] in
  check "canonical is order-insensitive" true
    (A.Diag.canonical a = A.Diag.canonical b);
  check_int "duplicates collapsed" 3 (List.length (A.Diag.canonical a))

let tests =
  [ Alcotest.test_case "interval ops" `Quick test_interval_ops;
    QCheck_alcotest.to_alcotest test_interval_sound_prop;
    Alcotest.test_case "congr residue" `Quick test_congr_residue;
    Alcotest.test_case "trip count" `Quick test_trip_count;
    QCheck_alcotest.to_alcotest test_absint_sound_prop;
    QCheck_alcotest.to_alcotest test_absint_aligned_prop;
    QCheck_alcotest.to_alcotest test_absint_sound_dep_prop;
    Alcotest.test_case "registry absint gate" `Slow test_registry_absint_gate;
    Alcotest.test_case "feature columns" `Quick test_feature_columns;
    Alcotest.test_case "lint determinism" `Quick test_lint_determinism;
    Alcotest.test_case "diag canonical" `Quick test_diag_canonical ]

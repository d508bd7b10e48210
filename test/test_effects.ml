(* Tests for the effect/ownership analysis and the shadow-state sanitizer:
   the Vexec.Effects license (syntactic baseline, subsumes algebra,
   ownership projection), the Analysis.Effect refinement and its
   transform-stability cross-check, the frozen-write barrier, and the
   sanitizer's poison detection — including the load-bearing proof that a
   poisoned master demonstrably corrupts a digest when detection is
   switched off. *)

open Vir
module B = Builder
module A = Vanalysis
module E = Vexec.Effects
module San = Vexec.Sanitize
module Env = Vinterp.Env

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let registry_kernels =
  List.map
    (fun (e : Tsvc.Registry.entry) -> e.kernel)
    (Tsvc.Registry.all @ Vapps.Registry.as_tsvc_entries)

(* a[i] = b[i] + 1.0 *)
let simple () =
  let b = B.make "t" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] (B.addf b x (B.cf 1.0));
  B.finish b

(* a[ix[i]] = b[i]: an indirect (scatter) write *)
let scatter () =
  let b = B.make "t" in
  let i = B.loop b "i" Kernel.Tn in
  let idx = B.load_index b "ix" [ B.ix i ] in
  B.store_ix b "a" idx (B.load b "b" [ B.ix i ]);
  B.finish b

(* --- the effect license ----------------------------------------------------- *)

let test_effects_of_kernel () =
  let k = simple () in
  let e = E.of_kernel k in
  check "a may-write" true (E.may_write e "a");
  check "a may-read is false" false (E.may_read e "a");
  check "b readonly" true (E.readonly e "b");
  check "b may-read" true (E.may_read e "b");
  check "b Frozen" true (E.ownership e "b" = Env.Frozen);
  check "a Owned" true (E.ownership e "a" = Env.Owned)

let test_effects_indirect_flags () =
  let e = E.of_kernel (scatter ()) in
  match E.find e "a" with
  | None -> Alcotest.fail "no entry for scattered array"
  | Some entry ->
      check "scatter is indirect write" true entry.E.e_write_indirect;
      check "ix is read" true (E.may_read e "ix");
      check "ix readonly" true (E.readonly e "ix")

let test_effects_subsumes () =
  let affine = E.of_kernel (simple ()) in
  let indirect = E.of_kernel (scatter ()) in
  check "reflexive" true (E.subsumes ~summary:affine affine);
  (* Both kernels are named "t": the indirect write is NOT implied by the
     affine summary, while the affine write is implied by the indirect. *)
  check "indirect escapes affine summary" false
    (E.subsumes ~summary:affine indirect);
  check "affine inside indirect summary" true
    (E.subsumes ~summary:indirect affine)

(* --- the analysis refinement ------------------------------------------------ *)

let test_effect_analyze_summary () =
  let k = simple () in
  let s = A.Effect.analyze k in
  check_int "one region per (array, dir)" 2
    (List.length s.A.Effect.e_regions);
  (match A.Effect.region s ~array:"a" ~write:true with
  | None -> Alcotest.fail "no write region for a"
  | Some r -> check "write region bounded" true
                (A.Interval.is_bounded r.A.Effect.r_range));
  check "b Frozen through summary" true
    (A.Effect.ownership s "b" = Env.Frozen)

let test_vkernel_effects_subsumed () =
  let k = simple () in
  match Vvect.Llv.vectorize ~vf:4 k with
  | Error _ -> Alcotest.fail "llv refused the simple kernel"
  | Ok vk ->
      check "wide-body effects inside source summary" true
        (E.subsumes ~summary:(E.of_kernel k) (A.Effect.vkernel_effects vk))

(* Small registry slice of the full crosscheck gate (the CLI runs the
   registry-wide version; CI gates on precision 1.0 there too). *)
let test_effect_crosscheck_slice () =
  let ks = List.filteri (fun i _ -> i mod 15 = 0) registry_kernels in
  let configs = A.Crosscheck.run Effects ks in
  check "slice sound" true (A.Crosscheck.sound configs);
  let st = A.Crosscheck.stats configs in
  check "has stable configs" true (st.A.Crosscheck.st_tp > 0);
  check_int "no escapes" 0 st.A.Crosscheck.st_fp

(* effects --all --json must be byte-stable across worker counts: the
   render below is what the CLI emits, serial vs pooled. *)
let test_effects_json_deterministic () =
  let ks = List.filteri (fun i _ -> i mod 10 = 0) registry_kernels in
  let render () =
    Vjson.to_string
      (Vjson.List (List.map A.Effect.summary_to_json (A.Effect.analyze_kernels ks)))
  in
  Vpar.Pool.set_sequential true;
  let serial =
    Fun.protect ~finally:(fun () -> Vpar.Pool.set_sequential false) render
  in
  let parallel = render () in
  check_str "sequential vs pool-rendered JSON" serial parallel

(* --- Env.reset after a trapped run ------------------------------------------ *)

(* Shift every store's innermost subscript by a few iterations: early
   iterations write to wrong (dirty) locations, then the walk traps at the
   extent edge.  Whether or not the trap fires for a given generated
   kernel, [reset] must restore the buffers byte-identically. *)
let sabotage k =
  let iv = (Kernel.innermost k).Kernel.var in
  let body =
    List.map
      (function
        | Instr.Store _ as s -> Instr.shift_var iv 7 s
        | i -> i)
      k.Kernel.body
  in
  { k with Kernel.body = body }

let prop_reset_after_trap =
  QCheck.Test.make ~count:60
    ~name:"Env.reset after a trapped run = fresh Env.create"
    QCheck.(int_bound 50_000)
    (fun seed ->
      let k = Vsynth.Generator.dep_kernel seed in
      let n = 64 in
      let env = Env.create ~n k in
      (try ignore (Vinterp.Interp.run_in env (sabotage k)) with _ -> ());
      Env.reset env k;
      Env.snapshot env = Env.snapshot (Env.create ~n k))

(* --- the sanitizer ----------------------------------------------------------- *)

(* Each sanitizer test starts from an empty master table and leaves the
   process exactly as found: detection on, sanitizer off, shadows and
   masters dropped (they are re-memoized on demand). *)
let with_sanitizer f =
  San.set_enabled true;
  San.reset ();
  Env.clear_masters ();
  Fun.protect f ~finally:(fun () ->
      San.set_detection true;
      San.set_enabled false;
      San.reset ();
      Env.clear_masters ())

let test_frozen_write_barrier () =
  with_sanitizer (fun () ->
      let k = simple () in
      let env = Env.create ~readonly:(E.readonly (E.of_kernel k)) ~n:64 k in
      (try
         Env.write_float env "b" 0 1.0;
         Alcotest.fail "write to Frozen buffer allowed"
       with Env.Frozen_write (arr, idx) ->
         check_str "array" "b" arr;
         check_int "index" 0 idx);
      (* owned buffers stay writable *)
      Env.write_float env "a" 0 1.0)

let test_sanitizer_detects_poison () =
  with_sanitizer (fun () ->
      let k = simple () in
      let _ = Env.create ~readonly:(E.readonly (E.of_kernel k)) ~n:64 k in
      San.verify ~site:"baseline";
      check "masters shadowed" true (San.shadowed () > 0);
      match Env.poison_master () with
      | None -> Alcotest.fail "no master to poison"
      | Some key -> (
          try
            San.verify ~site:"after-poison";
            Alcotest.fail "poisoned master not detected"
          with San.Corruption (site, key') ->
            check_str "site" "after-poison" site;
            check_str "master key" key key';
            check "corruption counted" true (San.corruption_count () > 0)))

(* The load-bearing proof: with detection switched off, the same poison
   passes verification silently AND demonstrably corrupts the master
   digest — detection is what carries the guarantee, not luck. *)
let test_sanitizer_detection_is_load_bearing () =
  with_sanitizer (fun () ->
      let k = simple () in
      let _ = Env.create ~readonly:(E.readonly (E.of_kernel k)) ~n:64 k in
      San.verify ~site:"baseline";
      let digest () =
        Env.fold_masters
          (fun key st acc -> (key, San.checksum st) :: acc)
          []
      in
      let before = digest () in
      San.set_detection false;
      (match Env.poison_master () with
      | None -> Alcotest.fail "no master to poison"
      | Some _ -> ());
      San.verify ~site:"detection-off" (* must NOT raise *);
      check "digest corrupted while undetected" false (digest () = before))

(* Seeded sanitize.poison fault: the injected corruption must surface as
   a Corruption at Measure's post-run verification site. *)
let test_sanitize_poison_fault_detected () =
  with_sanitizer (fun () ->
      match Vfault.Plan.parse "seed=5;sanitize.poison=1" with
      | Error e -> Alcotest.failf "plan parse: %s" e
      | Ok plan ->
          Vfault.Inject.set_active plan;
          Fun.protect
            ~finally:(fun () ->
              Vfault.Inject.set_active Vfault.Plan.empty;
              Vfault.Inject.reset_counts ())
            (fun () ->
              let k = simple () in
              try
                ignore (Vmachine.Measure.execute ~n:64 k);
                Alcotest.fail "injected sanitize.poison not detected"
              with San.Corruption (site, _) ->
                check "raised at a measure site" true
                  (String.length site >= 7
                  && String.equal (String.sub site 0 7) "measure")))

(* A one-element fan-out is still a join point: the pool's join hook, and
   with it the sanitizer's pool-join verification, must run once. *)
let test_singleton_fanout_verified () =
  let was = San.active () in
  San.set_enabled true;
  Fun.protect
    ~finally:(fun () -> San.set_enabled was)
    (fun () ->
      let before = San.verification_count () in
      check "mapped" true (Vpar.Pool.parallel_map succ [ 1 ] = [ 2 ]);
      check_int "one pool-join verification" (before + 1)
        (San.verification_count ()))

let tests =
  [ Alcotest.test_case "effects of_kernel" `Quick test_effects_of_kernel;
    Alcotest.test_case "effects indirect flags" `Quick
      test_effects_indirect_flags;
    Alcotest.test_case "effects subsumes" `Quick test_effects_subsumes;
    Alcotest.test_case "effect analyze summary" `Quick
      test_effect_analyze_summary;
    Alcotest.test_case "vkernel effects subsumed" `Quick
      test_vkernel_effects_subsumed;
    Alcotest.test_case "effect crosscheck slice" `Slow
      test_effect_crosscheck_slice;
    Alcotest.test_case "effects json deterministic" `Slow
      test_effects_json_deterministic;
    QCheck_alcotest.to_alcotest prop_reset_after_trap;
    Alcotest.test_case "frozen write barrier" `Quick test_frozen_write_barrier;
    Alcotest.test_case "sanitizer detects poison" `Quick
      test_sanitizer_detects_poison;
    Alcotest.test_case "sanitizer detection load-bearing" `Quick
      test_sanitizer_detection_is_load_bearing;
    Alcotest.test_case "sanitize.poison fault detected" `Quick
      test_sanitize_poison_fault_detected;
    Alcotest.test_case "singleton fan-out verified" `Quick
      test_singleton_fanout_verified ]

(* The legality oracle cross-checked against the translation validator and
   the reference interpreter over synthesized kernels.

   This is the PR's headline property: for EVERY configuration the oracle
   declares legal, forcing the transform (oracle bypassed) must produce a
   vkernel the validator accepts — multiset translation validation plus
   interpreter equivalence at the semantic sizes.  An oracle-legal
   configuration the validator refutes is a soundness bug, reported with
   the kernel name and configuration.

   Three generator families × the VF grid give 550 kernels and ~3300
   oracle verdicts per run:
     - [dep_kernel]: single-loop dependence stress (random offsets on one
       array), frequently illegal — exercises the refuse side too;
     - [nest_kernel]: two-level nests with offsets in both subscripts —
       direction vectors, outer-carried deps, interchange;
     - [kernel]: legal-by-construction bodies with varied access patterns
       (gather/strided/reversed, reductions) — exercises the idiom path. *)

module A = Vanalysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let vfs = [ 2; 4; 8 ]

(* No oracle-legal configuration may fail the validator; a failing
   kernel's summary names the configurations. *)
let prop_of ~name ~count gen =
  QCheck.Test.make ~count ~name
    QCheck.(int_bound 100_000)
    (fun seed ->
      let configs = A.Crosscheck.run Semantics ~vfs [ gen seed ] in
      A.Crosscheck.sound configs
      || (A.Crosscheck.print_summary Semantics stdout configs;
          false))

let test_dep_kernels_prop =
  prop_of ~name:"oracle sound on dependence-stress kernels (200 seeds)"
    ~count:200 Vsynth.Generator.dep_kernel

let test_nest_kernels_prop =
  prop_of ~name:"oracle sound on two-level nests (200 seeds)" ~count:200
    Vsynth.Generator.nest_kernel

let test_synth_kernels_prop =
  prop_of ~name:"oracle sound on random kernels (150 seeds)" ~count:150
    Vsynth.Generator.kernel

(* Interchange leg: whenever the graph-based verdict says legal on a
   synthesized nest, the interchanged kernel must be semantics-preserving
   under the reference interpreter. *)
let test_interchange_prop =
  QCheck.Test.make ~count:200
    ~name:"interchange verdict sound on two-level nests (200 seeds)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let k = Vsynth.Generator.nest_kernel seed in
      match Vvect.Interchange.apply k with
      | Error _ -> true
      | Ok swapped -> (
          match
            List.filter A.Diag.is_error
              (A.Equiv.semantic_diags ~pass:"interchange" ~orig:k swapped)
          with
          | [] -> true
          | d :: _ ->
              QCheck.Test.fail_reportf "interchange unsound: %s"
                (A.Diag.to_string d)))

(* --- registry-wide gate ------------------------------------------------------ *)

(* The acceptance criterion the CI step re-runs from the command line:
   zero oracle-legal configurations failing the validator across the whole
   TSVC registry, and the oracle must stay usefully aggressive (recall
   well above a vectorize-nothing strawman). *)
let test_registry_crosscheck_gate () =
  let ks = Tsvc.Registry.kernels in
  let configs = A.Crosscheck.run Semantics ks in
  let st = A.Crosscheck.stats configs in
  A.Crosscheck.print_summary Semantics stdout configs;
  check "oracle sound on the registry" true (A.Crosscheck.sound configs);
  check "precision 1.0" true (A.Crosscheck.precision st = 1.0);
  check "recall above 0.85" true (A.Crosscheck.recall st > 0.85);
  check_int "every kernel rated at every configuration"
    (2 * List.length vfs * List.length ks)
    (List.length configs)

(* A kernel's configurations share one source memo: the reference run and
   the static regions at each size.  Under either obligation, every verdict
   must equal the one its configuration gets against a fresh memo of its
   own. *)
let test_shared_reference_verdicts () =
  List.iter
    (fun k ->
      List.iter
        (fun ob ->
          List.iter
            (fun (c : A.Crosscheck.config) ->
              check
                (Printf.sprintf "%s %s vf=%d = from scratch" c.c_kernel
                   (A.Driver.transform_to_string c.c_transform)
                   c.c_vf)
                true
                (c = A.Crosscheck.check ob k c.c_transform ~vf:c.c_vf))
            (A.Crosscheck.run ob [ k ]))
        [ A.Crosscheck.Semantics; Effects ])
    (Tsvc.Registry.kernels
    @ List.map (fun (e : Tsvc.Registry.entry) -> e.kernel) Vapps.Registry.as_tsvc_entries)

(* --- determinism across worker counts ---------------------------------------- *)

(* [vecmodel deps --json] must be byte-stable whatever VECMODEL_JOBS says:
   run the summarizer sequentially and on the parallel pool and compare
   the full JSON. *)
let test_deps_json_determinism () =
  let ks = List.filteri (fun i _ -> i < 16) Tsvc.Registry.kernels in
  let was = Vpar.Pool.sequential () in
  Fun.protect
    ~finally:(fun () -> Vpar.Pool.set_sequential was)
    (fun () ->
      Vpar.Pool.set_sequential true;
      let render () =
        Vjson.to_string
          (Vjson.List
             (List.map A.Depsreport.summary_to_json
                (A.Depsreport.summarize_kernels ks)))
      in
      let seq = render () in
      Vpar.Pool.set_sequential false;
      let par = render () in
      Alcotest.(check string) "deps JSON byte-stable across jobs" seq par;
      check_int "one summary per kernel" (List.length ks)
        (List.length (A.Depsreport.summarize_kernels ks)))

(* The SLP reduction admission end-to-end: s311 was refused outright before
   the idiom tag; now it must vectorize and validate. *)
let test_reduction_now_admitted () =
  let k = (Tsvc.Registry.find_exn "s311").kernel in
  match Vvect.Slp.vectorize ~vf:4 k with
  | Error e -> Alcotest.failf "s311 still refused: %s" (Vvect.Slp.error_to_string e)
  | Ok vk ->
      check "validator accepts" true (A.Crosscheck.validates k vk);
      check_int "one horizontal reduction" 1
        (List.length vk.Vvect.Vinstr.vreductions)

let tests =
  [ QCheck_alcotest.to_alcotest test_dep_kernels_prop;
    QCheck_alcotest.to_alcotest test_nest_kernels_prop;
    QCheck_alcotest.to_alcotest test_synth_kernels_prop;
    QCheck_alcotest.to_alcotest test_interchange_prop;
    Alcotest.test_case "registry crosscheck gate" `Quick
      test_registry_crosscheck_gate;
    Alcotest.test_case "shared reference keeps every verdict" `Quick
      test_shared_reference_verdicts;
    Alcotest.test_case "deps json determinism" `Quick
      test_deps_json_determinism;
    Alcotest.test_case "reduction admitted end-to-end" `Quick
      test_reduction_now_admitted ]

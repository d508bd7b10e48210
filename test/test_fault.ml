(* PR 5's robustness layer: fault plans, the injection points, the
   supervised pool, quarantine/health, Huber-IRLS and the checkpoint
   journal.

   The aggregated runner pins the active plan to [Plan.empty] before any
   suite runs (so the golden/numeric suites stay exact even under a
   fault-injection CI job) and parks the environment plan in
   [captured_env_plan]; the tests here install explicit plans and always
   restore the empty override. *)

open Costmodel

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

(* Set by test_main.ml before the override pin, from VECMODEL_FAULTS. *)
let captured_env_plan = ref Vfault.Plan.empty

let with_plan plan f =
  Vfault.Inject.set_active plan;
  Fun.protect
    ~finally:(fun () ->
      Vfault.Inject.set_active Vfault.Plan.empty;
      Vfault.Inject.reset_counts ())
    f

let parse_exn spec =
  match Vfault.Plan.parse spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse %S: %s" spec e

(* --- plan grammar ---------------------------------------------------------- *)

let test_plan_parse_basic () =
  let p = parse_exn "seed=7;measure.nan=0.02;measure.spike=0.05@16" in
  check_int "seed" 7 p.Vfault.Plan.seed;
  check_int "clauses" 2 (List.length p.Vfault.Plan.clauses);
  check_string "canonical" "seed=7;measure.nan=0.02@1;measure.spike=0.05@16"
    (Vfault.Plan.to_string p);
  let empty = parse_exn "" in
  check_bool "empty spec is empty plan" true (Vfault.Plan.is_empty empty);
  (* Later clause for the same (site, kind) wins. *)
  let p2 = parse_exn "measure.nan=0.5;measure.nan=0.125" in
  (match Vfault.Plan.find p2 ~site:Vfault.Plan.Measure ~kind:Vfault.Plan.Nan with
  | Some c -> Alcotest.check (Alcotest.float 0.0) "later rate wins" 0.125 c.rate
  | None -> Alcotest.fail "clause lost");
  (* Defaults: spike magnitude 16, hang seconds 0.02. *)
  let p3 = parse_exn "pool.hang=1" in
  match Vfault.Plan.find p3 ~site:Vfault.Plan.Pool ~kind:Vfault.Plan.Hang with
  | Some c ->
      Alcotest.check (Alcotest.float 0.0) "hang default magnitude" 0.02
        c.magnitude
  | None -> Alcotest.fail "hang clause lost"

(* Off-grid numbers keep every digit: plans that differ only in the 7th
   significant digit of a rate print (and so cache) differently. *)
let test_plan_to_string_exact () =
  let spec = "seed=1;measure.spike=0.01234561@16" in
  let a = parse_exn spec and b = parse_exn "seed=1;measure.spike=0.01234564@16" in
  check_string "off-grid rate printed in full" spec (Vfault.Plan.to_string a);
  check_bool "distinct plans print differently" true
    (Vfault.Plan.to_string a <> Vfault.Plan.to_string b);
  check_bool "off-grid plan round-trips" true
    (Vfault.Plan.parse (Vfault.Plan.to_string b) = Ok (Vfault.Plan.normalize b))

let test_plan_parse_errors () =
  let rejected spec =
    match Vfault.Plan.parse spec with
    | Ok _ -> Alcotest.failf "%S should not parse" spec
    | Error e -> check_bool (spec ^ " has a message") true (String.length e > 0)
  in
  List.iter rejected
    [ "nonsense";
      "seed=abc";
      "bogus.nan=0.1";
      "measure.bogus=0.1";
      "measure.nan=1.5";
      "measure.nan=-0.1";
      "measure.nan=x";
      "measure.spike=0.1@0";
      "measure.spike=0.1@-2";
      "measure.spike=0.1@x";
      (* kind valid elsewhere, wrong site *)
      "measure.crash=0.1";
      "pool.nan=0.1";
      "cache.spike=0.1" ]

(* qcheck: to_string / parse round-trips the normalized plan. *)
let clause_gen =
  let open QCheck.Gen in
  let pairs =
    [ (Vfault.Plan.Measure, Vfault.Plan.Nan);
      (Vfault.Plan.Measure, Vfault.Plan.Inf);
      (Vfault.Plan.Measure, Vfault.Plan.Spike);
      (Vfault.Plan.Cache, Vfault.Plan.Corrupt);
      (Vfault.Plan.Pool, Vfault.Plan.Hang);
      (Vfault.Plan.Pool, Vfault.Plan.Crash) ]
  in
  let* site, kind = oneofl pairs in
  let* rate_m = int_range 0 1000 in
  let* mag_m = int_range 1 64 in
  return
    { Vfault.Plan.site; kind; rate = float_of_int rate_m /. 1000.0;
      magnitude = float_of_int mag_m /. 4.0 }

let plan_gen =
  let open QCheck.Gen in
  let* seed = int_range 0 10_000 in
  let* clauses = list_size (int_range 0 8) clause_gen in
  return { Vfault.Plan.seed; clauses }

let prop_plan_roundtrip =
  QCheck.Test.make ~count:200 ~name:"plan to_string/parse round-trip"
    (QCheck.make plan_gen) (fun p ->
      let canonical = Vfault.Plan.normalize p in
      match Vfault.Plan.parse (Vfault.Plan.to_string p) with
      | Ok p' -> p' = canonical
      | Error _ -> false)

(* --- injection points ------------------------------------------------------- *)

(* Empty plan (and all-zero rates): the Measure entry point is the
   identity and counts nothing. *)
let prop_empty_plan_identity =
  QCheck.Test.make ~count:100 ~name:"empty plan is identity on measurement"
    QCheck.(pair (float_range (-1e6) 1e6) small_printable_string)
    (fun (v, key) ->
      with_plan Vfault.Plan.empty (fun () ->
          let a = Vfault.Inject.measurement ~key v in
          Vfault.Inject.set_active
            (parse_exn "measure.nan=0;measure.inf=0;measure.spike=0@8");
          let b = Vfault.Inject.measurement ~key v in
          a = v && b = v && Vfault.Inject.counts () = []))

let test_measurement_kinds () =
  with_plan (parse_exn "measure.nan=1") (fun () ->
      check_bool "nan injected" true
        (Float.is_nan (Vfault.Inject.measurement ~key:"k" 2.5)));
  with_plan (parse_exn "measure.inf=1") (fun () ->
      check_bool "inf injected" true
        (Vfault.Inject.measurement ~key:"k" 2.5 = Float.infinity));
  with_plan (parse_exn "measure.spike=1@16") (fun () ->
      let v = Vfault.Inject.measurement ~key:"k" 2.0 in
      check_bool "spike scales by 16 one way or the other" true
        (v = 32.0 || v = 0.125);
      let c = Vfault.Inject.counts () in
      check_bool "spike counted" true (List.mem_assoc "measure.spike" c))

(* Empty plan: a Dataset build equals one under a plan whose clauses are
   all armed at rate zero (cache disabled so both actually rebuild). *)
let test_empty_plan_identity_dataset () =
  Dataset.set_cache_enabled false;
  Fun.protect
    ~finally:(fun () -> Dataset.set_cache_enabled true)
    (fun () ->
      let machine = Vmachine.Machines.neon_a57 in
      let build () =
        Dataset.build ~machine ~transform:Dataset.Llv
          ~n:Tsvc.Registry.default_n Tsvc.Registry.all
      in
      let clean = with_plan Vfault.Plan.empty build in
      let zeroed =
        with_plan
          (parse_exn
             "seed=9;measure.nan=0;measure.spike=0;cache.corrupt=0;\
              pool.crash=0;pool.hang=0")
          build
      in
      check_int "same size" (List.length clean) (List.length zeroed);
      List.iter2
        (fun (a : Dataset.sample) (b : Dataset.sample) ->
          check_string "name" a.name b.name;
          Alcotest.check (Alcotest.float 0.0) "measured" a.measured b.measured)
        clean zeroed)

(* --- determinism across worker counts --------------------------------------- *)

let faulty_plan =
  "seed=11;measure.nan=0.05;measure.spike=0.1@8;pool.crash=0.1;pool.hang=0.2@0.01"

let build_under_plan pool =
  Dataset.health_reset ();
  Dataset.set_cache_enabled false;
  Fun.protect
    ~finally:(fun () -> Dataset.set_cache_enabled true)
    (fun () ->
      with_plan (parse_exn faulty_plan) (fun () ->
          let samples =
            Dataset.build ~pool ~machine:Vmachine.Machines.neon_a57
              ~transform:Dataset.Llv ~n:Tsvc.Registry.default_n
              Tsvc.Registry.all
          in
          let h = Dataset.health () in
          ( List.map (fun (s : Dataset.sample) -> (s.name, s.measured)) samples,
            List.map (fun (q : Dataset.quarantine) -> q.q_name)
              h.Dataset.h_quarantined )))

let test_injection_deterministic_across_pools () =
  (* Decisions are keyed on content, never on workers: a 1-worker pool and
     a 5-worker pool must build byte-identical datasets and quarantine the
     same kernels under the same plan. *)
  let p1 = Vpar.Pool.create ~size:1 in
  let p5 = Vpar.Pool.create ~size:5 in
  Fun.protect
    ~finally:(fun () ->
      Vpar.Pool.shutdown p1;
      Vpar.Pool.shutdown p5)
    (fun () ->
      let m1, q1 = build_under_plan p1 in
      let m5, q5 = build_under_plan p5 in
      check_int "same sample count" (List.length m1) (List.length m5);
      List.iter2
        (fun (n1, v1) (n5, v5) ->
          check_string "kernel order" n1 n5;
          check_bool
            (Printf.sprintf "measured identical for %s" n1)
            true
            (v1 = v5 || (Float.is_nan v1 && Float.is_nan v5)))
        m1 m5;
      Alcotest.(check (list string))
        "same quarantined kernels"
        (List.sort compare q1) (List.sort compare q5);
      check_bool "plan actually quarantined something" true (q1 <> []))

(* --- supervised pool --------------------------------------------------------- *)

let test_supervised_map_ok_and_failures () =
  let results =
    Vpar.Pool.supervised_map ~retries:1
      (fun x -> if x mod 10 = 3 then failwith "odd one out" else x * 2)
      (List.init 25 (fun i -> i))
  in
  check_int "all tasks answered" 25 (List.length results);
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> check_int (Printf.sprintf "task %d" i) (2 * i) v
      | Error (f : Vpar.Pool.failure) ->
          check_int "failing index" i f.f_index;
          check_bool "failing tasks are the 3 mod 10 ones" true (i mod 10 = 3);
          check_int "attempts = 1 + retries" 2 f.f_attempts;
          check_bool "error preserved" true
            (String.length f.f_error > 0
            && String.length f.f_error >= String.length "odd one out"))
    results

let test_supervised_crash_respawn () =
  let pool = Vpar.Pool.create ~size:3 in
  Fun.protect
    ~finally:(fun () -> Vpar.Pool.shutdown pool)
    (fun () ->
      Vpar.Pool.reset_stats ();
      (* Rate-1 crash, with a rate-1 hang making every doomed execution
         linger a few ms so the worker domains — not just the helping
         submitter — actually pick jobs up and die.  Every task exhausts
         its retries yet the caller still gets an answer per task. *)
      with_plan (parse_exn "pool.crash=1;pool.hang=1@0.005") (fun () ->
          let results =
            Vpar.Pool.supervised_map ~pool ~retries:2 (fun x -> x)
              [ 1; 2; 3; 4; 5; 6; 7; 8 ]
          in
          check_int "all tasks answered" 8 (List.length results);
          List.iter
            (function
              | Ok _ -> Alcotest.fail "rate-1 crash cannot succeed"
              | Error (f : Vpar.Pool.failure) ->
                  check_int "attempts recorded" 3 f.f_attempts;
                  check_bool "crash named in error" true
                    (String.length f.f_error > 0))
            results);
      let st = Vpar.Pool.stats () in
      check_bool "crashes observed" true (st.Vpar.Pool.st_crashes >= 8);
      check_int "all failures counted" 8 st.Vpar.Pool.st_failures;
      (* The pool remains usable for plain maps afterwards: the next
         fan-out replaces the workers lost to the crashes above. *)
      let l = List.init 40 (fun i -> i) in
      Alcotest.(check (list int))
        "pool survives" (List.map succ l)
        (Vpar.Pool.parallel_map ~pool succ l);
      let st = Vpar.Pool.stats () in
      check_bool "crashed workers were replaced" true
        (st.Vpar.Pool.st_respawned >= 1);
      check_bool "replacements are alive" true (Vpar.Pool.alive_workers pool >= 1))

let test_supervised_crash_retry_recovers () =
  let pool = Vpar.Pool.create ~size:2 in
  Fun.protect
    ~finally:(fun () -> Vpar.Pool.shutdown pool)
    (fun () ->
      (* Moderate crash rate: decisions are keyed (task, attempt), so a
         task that crashes at attempt 0 gets an independent draw at
         attempt 1; with 6 retries every task recovers (deterministic for
         this seed). *)
      with_plan (parse_exn "seed=5;pool.crash=0.4") (fun () ->
          let results =
            Vpar.Pool.supervised_map ~pool ~retries:6
              (fun x -> x * x)
              (List.init 30 (fun i -> i))
          in
          List.iteri
            (fun i r ->
              match r with
              | Ok v -> check_int (Printf.sprintf "task %d" i) (i * i) v
              | Error (f : Vpar.Pool.failure) ->
                  Alcotest.failf "task %d lost after %d attempts: %s" i
                    f.f_attempts f.f_error)
            results))

let test_supervised_timeout () =
  Vpar.Pool.reset_stats ();
  (* Hang of 2 simulated seconds against a 0.1 s deadline: cancelled (the
     real sleep is capped, so the test stays fast). *)
  with_plan (parse_exn "pool.hang=1@2.0") (fun () ->
      let results =
        Vpar.Pool.supervised_map ~retries:0 ~timeout_s:0.1
          (fun x -> x + 1)
          [ 10; 20 ]
      in
      List.iter
        (function
          | Ok _ -> Alcotest.fail "hang beyond the deadline must cancel"
          | Error (f : Vpar.Pool.failure) ->
              check_bool "timeout named in error" true
                (String.length f.f_error > 0))
        results);
  let st = Vpar.Pool.stats () in
  check_bool "timeouts counted" true (st.Vpar.Pool.st_timeouts >= 2);
  (* Hang below the deadline: just a delay, the task succeeds. *)
  with_plan (parse_exn "pool.hang=1@0.005") (fun () ->
      match
        Vpar.Pool.supervised_map ~retries:0 ~timeout_s:0.5
          (fun x -> x + 1)
          [ 10 ]
      with
      | [ Ok 11 ] -> ()
      | _ -> Alcotest.fail "short hang should not cancel")

let test_parse_jobs () =
  List.iter
    (fun (s, expect) ->
      match (Vpar.Pool.parse_jobs s, expect) with
      | Ok n, Some m -> check_int (Printf.sprintf "parse_jobs %S" s) m n
      | Error _, None -> ()
      | Ok n, None ->
          Alcotest.failf "parse_jobs %S: expected rejection, got %d" s n
      | Error e, Some m ->
          Alcotest.failf "parse_jobs %S: expected %d, got error %s" s m e)
    [ ("4", Some 4); (" 8 ", Some 8); ("1", Some 1); ("0", None);
      ("-3", None); ("abc", None); ("", None); ("2.5", None) ]

(* --- cache corruption -------------------------------------------------------- *)

let test_cache_corruption_detected_and_rebuilt () =
  Dataset.cache_clear ();
  Dataset.health_reset ();
  let entries =
    List.filteri (fun i _ -> i < 25) Tsvc.Registry.all
  in
  let machine = Vmachine.Machines.neon_a57 in
  (* Rate-1 corruption fires on cache *hits*: the first build populates,
     the second detects every reused entry as corrupt and rebuilds it —
     same samples, corruption counter moving, misses growing. *)
  with_plan (parse_exn "cache.corrupt=1") (fun () ->
      let a =
        Dataset.build ~machine ~transform:Dataset.Llv
          ~n:Tsvc.Registry.default_n entries
      in
      let before = (Dataset.cache_stats ()).Dataset.misses in
      let b =
        Dataset.build ~machine ~transform:Dataset.Llv
          ~n:Tsvc.Registry.default_n entries
      in
      let after = (Dataset.cache_stats ()).Dataset.misses in
      let h = Dataset.health () in
      check_bool "corruptions detected" true (h.Dataset.h_cache_corruptions > 0);
      check_bool "corrupt entries rebuilt (misses grew)" true (after > before);
      check_int "same size" (List.length a) (List.length b);
      List.iter2
        (fun (x : Dataset.sample) (y : Dataset.sample) ->
          check_string "name" x.name y.name;
          Alcotest.check (Alcotest.float 0.0) "rebuild is deterministic"
            x.measured y.measured)
        a b);
  Dataset.cache_clear ()

(* --- repeats + MAD ----------------------------------------------------------- *)

let test_repeats_reject_injected_nan () =
  Dataset.set_cache_enabled false;
  Dataset.health_reset ();
  Fun.protect
    ~finally:(fun () -> Dataset.set_cache_enabled true)
    (fun () ->
      let entries = List.filteri (fun i _ -> i < 12) Tsvc.Registry.all in
      let machine = Vmachine.Machines.neon_a57 in
      (* Heavy NaN rate with single-shot measurement: whole samples are
         quarantined. *)
      let single =
        with_plan (parse_exn "seed=2;measure.nan=0.5") (fun () ->
            Dataset.build ~machine ~transform:Dataset.Llv
              ~n:Tsvc.Registry.default_n entries)
      in
      let h1 = Dataset.health () in
      check_bool "single-shot quarantines under 50% NaN" true
        (h1.Dataset.h_quarantined <> []);
      Dataset.health_reset ();
      (* Median-of-5 with per-repeat injection keys: a NaN repeat is
         rejected, the median of the surviving repeats carries the sample. *)
      let repeated =
        with_plan (parse_exn "seed=2;measure.nan=0.5") (fun () ->
            Dataset.build ~machine ~transform:Dataset.Llv ~repeats:5
              ~n:Tsvc.Registry.default_n entries)
      in
      let h2 = Dataset.health () in
      check_bool "repeats recover samples" true
        (List.length repeated >= List.length single);
      check_bool "rejected repeats are counted" true
        (h2.Dataset.h_repeats_rejected > 0);
      List.iter
        (fun (s : Dataset.sample) ->
          check_bool (s.name ^ " finite") true (Float.is_finite s.measured))
        repeated)

(* --- registry-wide run under a hostile plan ---------------------------------- *)

let test_registry_survives_kill_and_nan () =
  Dataset.health_reset ();
  Vpar.Pool.reset_stats ();
  Dataset.set_cache_enabled false;
  Fun.protect
    ~finally:(fun () -> Dataset.set_cache_enabled true)
    (fun () ->
      let machine = Vmachine.Machines.neon_a57 in
      let clean_count =
        List.length
          (Dataset.build ~machine ~transform:Dataset.Llv
             ~n:Tsvc.Registry.default_n Tsvc.Registry.all)
      in
      (* Kills workers and poisons measurements at once; the run must
         complete with every loss accounted for in the ledger. *)
      let samples =
        with_plan (parse_exn "seed=3;measure.nan=0.08;pool.crash=0.05")
          (fun () ->
            Dataset.build ~machine ~transform:Dataset.Llv
              ~n:Tsvc.Registry.default_n Tsvc.Registry.all)
      in
      let h = Dataset.health () in
      let st = Vpar.Pool.stats () in
      check_bool "run completed with samples" true (List.length samples > 0);
      check_bool "some samples lost" true (List.length samples < clean_count);
      check_bool "losses quarantined, not dropped" true
        (List.length samples + List.length h.Dataset.h_quarantined
        >= clean_count);
      check_bool "at least one worker was killed" true
        (st.Vpar.Pool.st_crashes >= 1);
      check_bool "injections counted" true (Vfault.Inject.counts () = [])
      (* counts were reset by with_plan's finally; the ledger is the
         durable record *))

(* --- Huber-IRLS --------------------------------------------------------------- *)

let arm_samples () =
  Experiment.samples ~machine:Vmachine.Machines.neon_a57 ~transform:Dataset.Llv
    ()

(* qcheck: on exactly-linear data Huber's IRLS never moves off the L2
   solution (the scale guard returns it unchanged). *)
let prop_huber_equals_l2_clean =
  QCheck.Test.make ~count:25 ~name:"Huber equals L2 at zero contamination"
    QCheck.(pair (int_bound 100_000) (int_range 30 60))
    (fun (seed, m) ->
      let base = Array.of_list (arm_samples ()) in
      QCheck.assume (Array.length base >= 1);
      let st = Random.State.make [| seed; m |] in
      let p = Array.length base.(0).Dataset.raw in
      QCheck.assume (m > p + 1);
      let w = Array.init p (fun _ -> Random.State.float st 4.0 -. 2.0) in
      let samples =
        List.init m (fun i ->
            let s = base.(i mod Array.length base) in
            let raw =
              Array.init p (fun _ -> 0.1 +. Random.State.float st 10.0)
            in
            let y =
              Array.fold_left ( +. ) 0.0 (Array.mapi (fun j v -> v *. w.(j)) raw)
            in
            { s with Dataset.raw; measured = y })
      in
      let predict method_ =
        Linmodel.predict_all
          (Linmodel.fit ~method_ ~features:Linmodel.Raw
             ~target:Linmodel.Speedup samples)
          samples
      in
      Array.for_all2
        (fun a b -> abs_float (a -. b) <= 1e-9 *. (1.0 +. abs_float b))
        (predict Linmodel.Huber) (predict Linmodel.L2))

(* F11 acceptance: at every contamination rate >= 5% the Huber fit beats
   the L2 fit on correlation against the clean measurements. *)
let test_f11_huber_beats_l2 () =
  let r = Experiment.f11 () in
  let pearson_of prefix rate =
    let label = Printf.sprintf "%s @ %2.0f%% outliers" prefix (100. *. rate) in
    match
      List.find_opt (fun (row : Report.row) -> row.label = label)
        r.Report.rows
    with
    | Some row -> row.Report.eval.Metrics.pearson
    | None -> Alcotest.failf "row %S missing from F11" label
  in
  List.iter
    (fun rate ->
      let l2 = pearson_of "L2" rate in
      let huber = pearson_of "Huber" rate in
      check_bool
        (Printf.sprintf "huber (%.3f) > l2 (%.3f) at %.0f%%" huber l2
           (100. *. rate))
        true (huber > l2))
    [ 0.05; 0.10; 0.15; 0.20 ]

let test_huber_persistence_roundtrip () =
  let s = arm_samples () in
  let m =
    Linmodel.fit ~method_:Linmodel.Huber ~features:Linmodel.Rated
      ~target:Linmodel.Speedup s
  in
  let path = Filename.temp_file "vecmodel_huber" ".model" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () ->
      Linmodel.save m path;
      match Linmodel.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok m' ->
          check_bool "method survives" true (m'.Linmodel.method_ = Linmodel.Huber);
          Array.iteri
            (fun i w ->
              Alcotest.check (Alcotest.float 1e-15)
                (Printf.sprintf "weight %d" i)
                w m'.Linmodel.weights.(i))
            m.Linmodel.weights)

(* --- checkpoint / journal ----------------------------------------------------- *)

let test_write_atomic () =
  let path = Filename.temp_file "vecmodel_atomic" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () ->
      Checkpoint.write_atomic path "first";
      Checkpoint.write_atomic path "second contents\nwith a newline\n";
      let ic = open_in_bin path in
      let got = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_string "atomic overwrite" "second contents\nwith a newline\n" got;
      (* No temp droppings left next to the target. *)
      let dir = Filename.dirname path in
      let base = Filename.basename path in
      let leftovers =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               f <> base
               && String.length f > String.length base
               && String.sub f 0 (String.length base) = base)
      in
      Alcotest.(check (list string)) "no temp files" [] leftovers)

let test_journal_roundtrip_and_truncation () =
  let path = Filename.temp_file "vecmodel_journal" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () ->
      Sys.remove path;
      let j = Checkpoint.Journal.load path in
      Checkpoint.Journal.record j "F1" "0.5 0.1";
      Checkpoint.Journal.record j "F2" "1.25 0.25";
      Checkpoint.Journal.record j "F1" "0.75 0.2" (* replaces *);
      Checkpoint.Journal.record j "WITH\tTABS" "pay\tload\nline2";
      let j' = Checkpoint.Journal.load path in
      check_int "entries" 3 (List.length (Checkpoint.Journal.entries j'));
      (match Checkpoint.Journal.find j' "F1" with
      | Some p -> check_string "latest F1 wins" "0.75 0.2" p
      | None -> Alcotest.fail "F1 lost");
      (match Checkpoint.Journal.find j' "WITH\tTABS" with
      | Some p -> check_string "escaping round-trips" "pay\tload\nline2" p
      | None -> Alcotest.fail "escaped entry lost");
      (* A crash mid-append: simulate by appending a truncated line; the
         loader drops it and keeps every valid entry. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "v1\tF9\tdeadbeef";
      close_out oc;
      let j'' = Checkpoint.Journal.load path in
      check_int "truncated line dropped" 3
        (List.length (Checkpoint.Journal.entries j''));
      check_bool "valid entries intact" true
        (Checkpoint.Journal.find j'' "F2" = Some "1.25 0.25");
      (* clear deletes the file. *)
      Checkpoint.Journal.clear j'';
      check_bool "journal file removed" false (Sys.file_exists path);
      (* keep the tempfile cleanup in ~finally happy *)
      let oc = open_out path in
      close_out oc)

(* --- environment plan --------------------------------------------------------- *)

let test_env_plan_canonical () =
  (* Whatever VECMODEL_FAULTS the CI job set: it parsed (or warned and
     came back empty), and its canonical form re-parses to itself. *)
  let p = !captured_env_plan in
  match Vfault.Plan.parse (Vfault.Plan.to_string p) with
  | Ok p' ->
      check_bool "canonical form re-parses to the same plan" true
        (p' = Vfault.Plan.normalize p)
  | Error e -> Alcotest.failf "canonical env plan does not re-parse: %s" e

let test_env_plan_exercised () =
  (* Under the fault-injection CI job this drives the real environment
     plan through a small registry slice; with no env plan it degenerates
     to a clean build. *)
  let p = !captured_env_plan in
  Dataset.set_cache_enabled false;
  Dataset.health_reset ();
  Fun.protect
    ~finally:(fun () -> Dataset.set_cache_enabled true)
    (fun () ->
      with_plan p (fun () ->
          let entries = List.filteri (fun i _ -> i < 20) Tsvc.Registry.all in
          let samples =
            Dataset.build ~machine:Vmachine.Machines.neon_a57
              ~transform:Dataset.Llv ~n:Tsvc.Registry.default_n entries
          in
          let h = Dataset.health () in
          check_bool "run completes under the env plan" true
            (List.length samples + List.length h.Dataset.h_quarantined > 0);
          List.iter
            (fun (s : Dataset.sample) ->
              check_bool (s.name ^ " measured is finite") true
                (Float.is_finite s.measured))
            samples))

let tests =
  [ Alcotest.test_case "plan parse basics" `Quick test_plan_parse_basic;
    Alcotest.test_case "plan parse errors" `Quick test_plan_parse_errors;
    Alcotest.test_case "plan to_string keeps every digit" `Quick
      test_plan_to_string_exact;
    QCheck_alcotest.to_alcotest prop_plan_roundtrip;
    QCheck_alcotest.to_alcotest prop_empty_plan_identity;
    Alcotest.test_case "measurement fault kinds" `Quick test_measurement_kinds;
    Alcotest.test_case "empty plan identity on dataset" `Quick
      test_empty_plan_identity_dataset;
    Alcotest.test_case "injection deterministic across pool sizes" `Quick
      test_injection_deterministic_across_pools;
    Alcotest.test_case "supervised map isolates failures" `Quick
      test_supervised_map_ok_and_failures;
    Alcotest.test_case "supervised crash + respawn" `Quick
      test_supervised_crash_respawn;
    Alcotest.test_case "supervised crash retry recovers" `Quick
      test_supervised_crash_retry_recovers;
    Alcotest.test_case "supervised timeout" `Quick test_supervised_timeout;
    Alcotest.test_case "VECMODEL_JOBS validation" `Quick test_parse_jobs;
    Alcotest.test_case "cache corruption detected + rebuilt" `Quick
      test_cache_corruption_detected_and_rebuilt;
    Alcotest.test_case "repeats reject injected NaN" `Quick
      test_repeats_reject_injected_nan;
    Alcotest.test_case "registry survives kill + NaN plan" `Quick
      test_registry_survives_kill_and_nan;
    QCheck_alcotest.to_alcotest prop_huber_equals_l2_clean;
    Alcotest.test_case "F11: Huber beats L2 under contamination" `Quick
      test_f11_huber_beats_l2;
    Alcotest.test_case "Huber model persistence round-trip" `Quick
      test_huber_persistence_roundtrip;
    Alcotest.test_case "write_atomic" `Quick test_write_atomic;
    Alcotest.test_case "journal round-trip + truncation" `Quick
      test_journal_roundtrip_and_truncation;
    Alcotest.test_case "env plan canonicalizes" `Quick test_env_plan_canonical;
    Alcotest.test_case "env plan exercised" `Quick test_env_plan_exercised ]

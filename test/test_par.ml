(* The performance layer: the domain pool, the memo table, the memoized
   sample pipeline, and the analytic O(n·p²) L2 LOOCV fast path. *)

open Costmodel

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

(* --- domain pool ----------------------------------------------------------- *)

let test_pool_map_identity () =
  List.iter
    (fun size ->
      let pool = Vpar.Pool.create ~size in
      Fun.protect
        ~finally:(fun () -> Vpar.Pool.shutdown pool)
        (fun () ->
          List.iter
            (fun chunk ->
              List.iter
                (fun n ->
                  let l = List.init n (fun i -> i - 3) in
                  let f x = (x * x) - (5 * x) + 1 in
                  Alcotest.(check (list int))
                    (Printf.sprintf "size %d chunk %d n %d" size chunk n)
                    (List.map f l)
                    (Vpar.Pool.parallel_map ~pool ~chunk f l))
                [ 0; 1; 7; 137 ])
            [ 1; 2; 3; 17; 200 ]))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_pool_nested () =
  let pool = Vpar.Pool.create ~size:2 in
  Fun.protect
    ~finally:(fun () -> Vpar.Pool.shutdown pool)
    (fun () ->
      let outer = List.init 9 (fun i -> i) in
      let expected =
        List.map (fun i -> List.map (fun j -> i + j) [ 0; 1; 2 ]) outer
      in
      let got =
        Vpar.Pool.parallel_map ~pool
          (fun i -> Vpar.Pool.parallel_map ~pool (fun j -> i + j) [ 0; 1; 2 ])
          outer
      in
      Alcotest.(check (list (list int))) "nested maps" expected got)

let test_pool_exception () =
  let pool = Vpar.Pool.create ~size:3 in
  Fun.protect
    ~finally:(fun () -> Vpar.Pool.shutdown pool)
    (fun () ->
      (* Failures surface as Task_failed carrying the *smallest* failing
         index (stable across worker counts), the original exception and
         its backtrace. *)
      match
        Vpar.Pool.parallel_map ~pool ~chunk:4
          (fun x -> if x >= 50 then failwith (Printf.sprintf "boom%d" x) else x)
          (List.init 100 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Vpar.Pool.Task_failed { index; exn; backtrace } ->
          check_int "smallest failing index" 50 index;
          check_bool "original exception" true (exn = Failure "boom50");
          check_bool "backtrace captured" true (String.length backtrace > 0))

let test_pool_sequential_flag () =
  Vpar.Pool.set_sequential true;
  Fun.protect
    ~finally:(fun () -> Vpar.Pool.set_sequential false)
    (fun () ->
      check_bool "flag reads back" true (Vpar.Pool.sequential ());
      let l = List.init 25 (fun i -> i) in
      Alcotest.(check (list int))
        "sequential mode still maps" (List.map succ l)
        (Vpar.Pool.parallel_map succ l))

let test_pool_default () =
  check_bool "default pool has >= 1 worker" true
    (Vpar.Pool.size (Vpar.Pool.default ()) >= 1)

(* qcheck: parallel_map f = List.map f for pure f, over random lists,
   chunk sizes, and pool sizes 1..8 (pools are created once and reused so
   the property does not spawn hundreds of domains). *)
let prop_pools = lazy (Array.init 8 (fun i -> Vpar.Pool.create ~size:(i + 1)))

let prop_parallel_map_identity =
  QCheck.Test.make ~count:60 ~name:"parallel_map equals List.map"
    QCheck.(triple (list int) (int_range 1 50) (int_range 1 8))
    (fun (l, chunk, size) ->
      let pool = (Lazy.force prop_pools).(size - 1) in
      let f x = (3 * x) + 1 in
      Vpar.Pool.parallel_map ~pool ~chunk f l = List.map f l)

(* Every non-empty fan-out, inline or pooled, is one join point: the
   sanitizer's pool-join verification runs once per call. *)
let test_join_hook_once_per_fanout () =
  let was = Vexec.Sanitize.active () in
  Vexec.Sanitize.set_enabled true;
  let pool = Vpar.Pool.create ~size:2 in
  Fun.protect
    ~finally:(fun () ->
      Vpar.Pool.shutdown pool;
      Vpar.Pool.set_sequential false;
      Vexec.Sanitize.set_enabled was)
    (fun () ->
      let l = List.init 20 Fun.id in
      List.iter
        (fun (mode, sequential) ->
          Vpar.Pool.set_sequential sequential;
          let once label run =
            let before = Vexec.Sanitize.verification_count () in
            ignore (run ());
            check_int (label ^ " " ^ mode) (before + 1)
              (Vexec.Sanitize.verification_count ())
          in
          once "parallel_map" (fun () ->
              Vpar.Pool.parallel_map ~pool ~chunk:3 succ l);
          once "supervised_map" (fun () ->
              Vpar.Pool.supervised_map ~pool succ l))
        [ ("inline", true); ("pooled", false) ])

(* --- memo table ------------------------------------------------------------ *)

let test_memo_miss_then_hit () =
  let m = Vpar.Memo.create () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    42
  in
  check_int "miss computes" 42 (Vpar.Memo.find_or_compute m "k" compute);
  check_int "hit returns it" 42 (Vpar.Memo.find_or_compute m "k" compute);
  check_int "one computation" 1 !calls;
  let s = Vpar.Memo.stats m in
  check_int "one hit" 1 s.Vpar.Memo.hits;
  check_int "one miss" 1 s.misses;
  check_int "one entry" 1 s.entries

let test_memo_raise_publishes_nothing () =
  let m = Vpar.Memo.create () in
  (match Vpar.Memo.find_or_compute m "k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the computation's exception"
  | exception Failure _ -> ());
  check_bool "nothing published" false (Vpar.Memo.mem m "k");
  check_int "next lookup recomputes" 7
    (Vpar.Memo.find_or_compute m "k" (fun () -> 7));
  check_int "both lookups missed" 2 (Vpar.Memo.stats m).misses

let test_memo_clear () =
  let m = Vpar.Memo.create () in
  List.iter
    (fun k -> ignore (Vpar.Memo.find_or_compute m k (fun () -> k)))
    [ 1; 2; 1 ];
  Vpar.Memo.clear m;
  let s = Vpar.Memo.stats m in
  check_int "no entries" 0 s.Vpar.Memo.entries;
  check_int "hits zeroed" 0 s.hits;
  check_int "misses zeroed" 0 s.misses;
  check_bool "entry gone" false (Vpar.Memo.mem m 1)

let test_memo_concurrent_cold_key () =
  let pool = Vpar.Pool.create ~size:2 in
  Fun.protect
    ~finally:(fun () -> Vpar.Pool.shutdown pool)
    (fun () ->
      let m = Vpar.Memo.create () in
      let got =
        Vpar.Pool.parallel_map ~pool ~chunk:1
          (fun _ ->
            Vpar.Memo.find_or_compute m "cold" (fun () ->
                Array.init 8 float_of_int))
          (List.init 64 Fun.id)
      in
      check_bool "one value" true (List.for_all (( = ) (List.hd got)) got);
      let s = Vpar.Memo.stats m in
      check_int "one entry" 1 s.Vpar.Memo.entries;
      check_int "every lookup counted" 64 (s.hits + s.misses))

(* --- analytic LOOCV vs naive refits ------------------------------------------ *)

let arm_samples () =
  Experiment.samples ~machine:Vmachine.Machines.neon_a57 ~transform:Dataset.Llv
    ()

(* The pre-PR-2 implementation, kept here as the reference oracle. *)
let loocv_naive ~method_ ~features ~target samples =
  let arr = Array.of_list samples in
  Array.mapi
    (fun i _ ->
      let training = List.filteri (fun j _ -> j <> i) samples in
      let m = Linmodel.fit ~method_ ~features ~target training in
      Linmodel.predict m arr.(i))
    arr

let test_analytic_loocv_matches_naive_tsvc () =
  (* Within 1e-9 (relative): raw counts are ill-scaled (column magnitudes
     differ by orders), so both paths carry ~1e-9-relative roundoff. *)
  let s = arm_samples () in
  List.iter
    (fun (label, features) ->
      let fast =
        Crossval.loocv ~method_:Linmodel.L2 ~features ~target:Linmodel.Speedup s
      in
      let slow =
        loocv_naive ~method_:Linmodel.L2 ~features ~target:Linmodel.Speedup s
      in
      check_int (label ^ " length") (Array.length slow) (Array.length fast);
      Array.iteri
        (fun i v ->
          check_bool
            (Printf.sprintf "%s sample %d: |%.17g - %.17g| <= 1e-9" label i v
               slow.(i))
            true
            (abs_float (v -. slow.(i)) <= 1e-9 *. (1.0 +. abs_float slow.(i))))
        fast)
    [ ("raw", Linmodel.Raw); ("rated", Linmodel.Rated);
      ("extended", Linmodel.Extended) ]

let test_nnls_loocv_unchanged () =
  (* The parallel NNLS path must produce exactly the serial refits. *)
  let s = arm_samples () in
  let fast =
    Crossval.loocv ~method_:Linmodel.Nnls ~features:Linmodel.Rated
      ~target:Linmodel.Speedup s
  in
  Vpar.Pool.set_sequential true;
  let slow =
    Fun.protect
      ~finally:(fun () -> Vpar.Pool.set_sequential false)
      (fun () ->
        loocv_naive ~method_:Linmodel.Nnls ~features:Linmodel.Rated
          ~target:Linmodel.Speedup s)
  in
  Array.iteri
    (fun i v ->
      Alcotest.check (Alcotest.float 1e-12)
        (Printf.sprintf "sample %d" i)
        slow.(i) v)
    fast

(* qcheck: on random well-scaled datasets the analytic identity matches
   the naive refits to 1e-9 (relative).  Random feature vectors are
   spliced into real samples so the rest of the record stays well-typed. *)
let prop_analytic_loocv_random =
  QCheck.Test.make ~count:40 ~name:"analytic L2 LOOCV matches naive refits"
    QCheck.(pair (int_bound 100_000) (int_range 25 60))
    (fun (seed, m) ->
      let base = Array.of_list (arm_samples ()) in
      QCheck.assume (Array.length base >= 1);
      let st = Random.State.make [| seed; m |] in
      let p = Array.length base.(0).Dataset.raw in
      QCheck.assume (m > p + 1);
      let samples =
        List.init m (fun i ->
            let s = base.(i mod Array.length base) in
            let raw =
              Array.init p (fun _ -> 0.1 +. Random.State.float st 10.0)
            in
            { s with Dataset.raw; measured = 0.5 +. Random.State.float st 7.0 })
      in
      let fast =
        Crossval.loocv ~method_:Linmodel.L2 ~features:Linmodel.Raw
          ~target:Linmodel.Speedup samples
      in
      let slow =
        loocv_naive ~method_:Linmodel.L2 ~features:Linmodel.Raw
          ~target:Linmodel.Speedup samples
      in
      Array.for_all2
        (fun a b -> abs_float (a -. b) <= 1e-9 *. (1.0 +. abs_float b))
        fast slow)

(* --- sample memo cache -------------------------------------------------------- *)

let test_cache_shared_across_experiments () =
  (* The runtest gate for the memo keys: two experiments over the same
     (machine, transform, config) must share one sample build. *)
  Dataset.cache_clear ();
  ignore (Experiment.f4 ());
  let s1 = Dataset.cache_stats () in
  check_bool "f4 populated the cache" true (s1.Dataset.misses > 0);
  ignore (Experiment.f5 ());
  let s2 = Dataset.cache_stats () in
  check_int "f5 recomputed nothing" s1.Dataset.misses s2.Dataset.misses;
  check_bool "f5 hit every registry entry" true
    (s2.Dataset.hits >= s1.Dataset.hits + Tsvc.Registry.count)

let test_cache_returns_equal_samples () =
  Dataset.cache_clear ();
  let machine = Vmachine.Machines.neon_a57 in
  let a = Experiment.samples ~machine ~transform:Dataset.Llv () in
  let b = Experiment.samples ~machine ~transform:Dataset.Llv () in
  check_int "same size" (List.length a) (List.length b);
  List.iter2
    (fun (x : Dataset.sample) (y : Dataset.sample) ->
      Alcotest.check Alcotest.string "name" x.name y.name;
      Alcotest.check (Alcotest.float 0.0) "measured" x.measured y.measured;
      Alcotest.check (Alcotest.float 0.0) "baseline" x.baseline y.baseline)
    a b

let test_cache_key_includes_config () =
  Dataset.cache_clear ();
  let machine = Vmachine.Machines.neon_a57 in
  let cfg seed = { Experiment.default_config with seed } in
  let a = Experiment.samples ~config:(cfg 1) ~machine ~transform:Dataset.Llv () in
  let s1 = Dataset.cache_stats () in
  let b = Experiment.samples ~config:(cfg 2) ~machine ~transform:Dataset.Llv () in
  let s2 = Dataset.cache_stats () in
  check_int "different seed misses again" (2 * s1.Dataset.misses)
    s2.Dataset.misses;
  check_bool "different seed changes a measurement" true
    (List.exists2
       (fun (x : Dataset.sample) (y : Dataset.sample) ->
         x.measured <> y.measured)
       a b)

(* Two machines that differ only in an op table: a copy of neon-a57 whose
   vector FP ops have 8x the reciprocal throughput, same name.  Built after
   the builtin in one process it must miss the cache and get the samples a
   fresh cache builds for it, not the builtin's. *)
let test_cache_key_includes_op_tables () =
  let base = Vmachine.Machines.neon_a57 in
  let slow =
    { base with
      Vmachine.Descr.vector_op =
        (fun c ty ->
          let i = base.vector_op c ty in
          if Vir.Types.is_float ty then { i with rtp = 8.0 *. i.rtp } else i) }
  in
  let entries = List.filteri (fun i _ -> i < 24) Tsvc.Registry.all in
  let build machine =
    Dataset.build ~machine ~transform:Dataset.Llv ~n:1024 entries
  in
  let speedups = List.map (fun (s : Dataset.sample) -> s.measured) in
  Dataset.cache_clear ();
  let fresh = speedups (build slow) in
  Dataset.cache_clear ();
  let builtin = speedups (build base) in
  let after = speedups (build slow) in
  check_bool "the op tables change a speedup" true (fresh <> builtin);
  check_bool "the copy gets its own samples" true (after = fresh)

let test_registry_cache_counts () =
  (* Pins how often a cold registry pass looks samples, executions and
     LOOCV predictions up: a table that looked its sample set up twice
     would print the same report but count more hits here.  A6 builds no
     samples. *)
  Dataset.cache_clear ();
  Experiment.loocv_cache_clear ();
  List.iter
    (fun (e : Experiment.entry) -> if e.id <> "a6" then ignore (e.run ()))
    Experiment.registry;
  let check name (s : Dataset.cache_stats) hits misses =
    check_int (name ^ " hits") hits s.hits;
    check_int (name ^ " misses") misses s.misses
  in
  check "sample cache" (Dataset.cache_stats ()) 3115 1016;
  check_int "sample cache entries" 1016 (Dataset.cache_stats ()).entries;
  check "execution memo" (Dataset.exec_stats ()) 547 206;
  check "loocv memo" (Experiment.loocv_cache_stats ()) 2 4

let test_cache_disable () =
  Dataset.cache_clear ();
  Dataset.set_cache_enabled false;
  Fun.protect
    ~finally:(fun () -> Dataset.set_cache_enabled true)
    (fun () ->
      let machine = Vmachine.Machines.neon_a57 in
      let s = Experiment.samples ~machine ~transform:Dataset.Llv () in
      check_bool "still builds samples" true (List.length s > 0);
      let st = Dataset.cache_stats () in
      check_int "no hits recorded" 0 st.Dataset.hits;
      check_int "no misses recorded" 0 st.Dataset.misses;
      check_int "no entries stored" 0 st.Dataset.entries)

let tests =
  [ Alcotest.test_case "pool map identity" `Quick test_pool_map_identity;
    Alcotest.test_case "pool nested" `Quick test_pool_nested;
    Alcotest.test_case "pool exception" `Quick test_pool_exception;
    Alcotest.test_case "pool sequential flag" `Quick test_pool_sequential_flag;
    Alcotest.test_case "pool default" `Quick test_pool_default;
    QCheck_alcotest.to_alcotest prop_parallel_map_identity;
    Alcotest.test_case "join hook once per fan-out" `Quick
      test_join_hook_once_per_fanout;
    Alcotest.test_case "memo miss then hit" `Quick test_memo_miss_then_hit;
    Alcotest.test_case "memo raise publishes nothing" `Quick
      test_memo_raise_publishes_nothing;
    Alcotest.test_case "memo clear" `Quick test_memo_clear;
    Alcotest.test_case "memo concurrent cold key" `Quick
      test_memo_concurrent_cold_key;
    Alcotest.test_case "analytic loocv matches naive (TSVC)" `Quick
      test_analytic_loocv_matches_naive_tsvc;
    Alcotest.test_case "nnls loocv unchanged" `Quick test_nnls_loocv_unchanged;
    QCheck_alcotest.to_alcotest prop_analytic_loocv_random;
    Alcotest.test_case "cache shared across experiments" `Quick
      test_cache_shared_across_experiments;
    Alcotest.test_case "cache returns equal samples" `Quick
      test_cache_returns_equal_samples;
    Alcotest.test_case "cache key includes config" `Quick
      test_cache_key_includes_config;
    Alcotest.test_case "cache key includes op tables" `Quick
      test_cache_key_includes_op_tables;
    Alcotest.test_case "registry cache counts" `Quick
      test_registry_cache_counts;
    Alcotest.test_case "cache disable" `Quick test_cache_disable ]

(* The per-layer metrics of a traced run.  Every traced run prints all of
   them; a layer the workload does not call reads 0.  The benchmark's own
   tests check this list against BENCHMARK.json. *)

open Costmodel

let grid_ids =
  [ "f1"; "f2"; "f3"; "f4"; "f5"; "f6"; "f7"; "f8"; "f9"; "f10"; "f11"; "f12";
    "f13"; "t1"; "t2"; "a1"; "a2"; "a3"; "a4"; "a5"; "a6"; "a7"; "a8"; "a9";
    "a10" ]

let feature_kinds =
  [ "counts"; "norm_raw"; "rated"; "extended"; "absint"; "opt"; "deps"; "cert";
    "vcounts" ]

let all =
  List.map (fun n -> (n, "s"))
    ([ "exec.execute_s"; "exec.prepare_s"; "exec.run_s"; "exec.digest_s";
       "interp.env_init_s" ]
    @ List.map (fun k -> "core.feature." ^ k ^ "_s") feature_kinds
    @ [ "analysis.certify_s"; "vect.transform_s"; "machine.measure_s";
        "machine.sched_s"; "core.baseline_s" ])
  @ List.map (fun n -> (n, "ms"))
      [ "analysis.lint_ms"; "analysis.certify_ms"; "core.extract_ms";
        "core.predict_ms"; "serve.parse_ms"; "serve.engine_ms";
        "serve.encode_ms"; "serve.transport_ms" ]
  @ List.map (fun n -> (n, "count"))
      [ "serve.answered"; "serve.rejected"; "serve.degraded"; "serve.partials" ]
  @ List.map (fun id -> ("grid." ^ id ^ "_s", "s")) grid_ids
  @ [ ("core.cache_hits", "count"); ("core.cache_misses", "count");
      ("core.cache_hit_frac", "frac"); ("core.loocv_cache_hits", "count");
      ("core.loocv_cache_misses", "count"); ("core.samples_built", "count");
      ("core.quarantined", "count") ]
  @ List.map (fun n -> (n, "count"))
      [ "par.retries"; "par.timeouts"; "par.crashes"; "par.failures";
        "par.degraded" ]
  @ [ ("gc.alloc_mb_per_op", "MB"); ("gc.major_per_op", "count");
      ("trace.overhead_ms", "ms") ]

(* The full per-layer list from the values a workload measured; naming a
   metric outside the list is a bug in the benchmark. *)
let complete values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name all) then
        invalid_arg ("unknown per-layer metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      Common.metric name unit_
        (Option.value ~default:0.0 (List.assoc_opt name values)))
    all

(* --- counters read from the program's own introspection ----------------- *)

(* Clear every cache a cold op must start without: the sample cache, the
   LOOCV cache, the interpreter's master buffers and the health ledger. *)
let cold_reset () =
  Dataset.cache_clear ();
  Experiment.loocv_cache_clear ();
  Vinterp.Env.clear_masters ();
  Dataset.health_reset ()

let cache_counts () =
  let c = Dataset.cache_stats () in
  let l = Experiment.loocv_cache_stats () in
  let built =
    List.fold_left (fun acc (_, k) -> acc + k) 0 (Dataset.cache_backends ())
  in
  let lookups = c.Dataset.hits + c.Dataset.misses in
  [ ("core.cache_hits", float_of_int c.Dataset.hits);
    ("core.cache_misses", float_of_int c.Dataset.misses);
    ( "core.cache_hit_frac",
      if lookups = 0 then 0.0
      else float_of_int c.Dataset.hits /. float_of_int lookups );
    ("core.loocv_cache_hits", float_of_int l.Dataset.hits);
    ("core.loocv_cache_misses", float_of_int l.Dataset.misses);
    ("core.samples_built", float_of_int built);
    ( "core.quarantined",
      float_of_int (List.length (Dataset.health ()).Dataset.h_quarantined) ) ]

let par_counts (before : Vpar.Pool.stats) =
  let a = Vpar.Pool.stats () in
  [ ("par.retries", a.st_retries - before.st_retries);
    ("par.timeouts", a.st_timeouts - before.st_timeouts);
    ("par.crashes", a.st_crashes - before.st_crashes);
    ("par.failures", a.st_failures - before.st_failures);
    ("par.degraded", a.st_degraded - before.st_degraded) ]
  |> List.map (fun (k, v) -> (k, float_of_int v))

(* Allocated words and major collections so far, all domains. *)
let gc_mark () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words,
   s.Gc.major_collections)

let gc_per_op (words0, majors0) ~ops =
  let words1, majors1 = gc_mark () in
  let ops = float_of_int ops in
  [ ( "gc.alloc_mb_per_op",
      (words1 -. words0) *. float_of_int (Sys.word_size / 8) /. 1e6 /. ops );
    ("gc.major_per_op", float_of_int (majors1 - majors0) /. ops) ]

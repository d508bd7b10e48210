(* The grid workload: cold passes of the 25 `vecmodel report` drivers.
   Each driver call is one op; its output is checked against hand-written
   headline numbers at the precision the report prints them. *)

open Costmodel

(* --- headline facts ------------------------------------------------------- *)

let r3 v = Printf.sprintf "%.3f" v
let f2 v = Printf.sprintf "%.2f" v

let report_facts ?(prefix = "") (r : Report.result) =
  (prefix ^ "n", string_of_int r.Report.n_samples)
  :: List.map
       (fun (row : Report.row) ->
         (prefix ^ row.Report.label, r3 row.Report.eval.Metrics.pearson))
       r.Report.rows

let pair_facts (a, b) = report_facts ~prefix:"a:" a @ report_facts ~prefix:"b:" b

let drivers : (string * (unit -> (string * string) list)) list =
  let rep f () = report_facts (f ()) in
  [ ("f1", rep (fun () -> Experiment.f1 ()));
    ("f2", rep (fun () -> Experiment.f2 ()));
    ("f3", rep (fun () -> Experiment.f3 ()));
    ("f4", rep (fun () -> Experiment.f4 ()));
    ("f5", rep (fun () -> Experiment.f5 ()));
    ("f6", rep (fun () -> Experiment.f6 ()));
    ("f7", rep (fun () -> Experiment.f7 ()));
    ("f8", rep (fun () -> Experiment.f8 ()));
    ("f9", rep (fun () -> Experiment.f9 ()));
    ("f10", rep (fun () -> Experiment.f10 ()));
    ("f11", rep (fun () -> Experiment.f11 ()));
    ("f12", rep (fun () -> Experiment.f12 ()));
    ("f13", rep (fun () -> Experiment.f13 ()));
    ( "t1",
      fun () ->
        let t = Experiment.t1 () in
        ("kernel", t.Experiment.t1_kernel)
        :: List.map
             (fun (row : Experiment.t1_row) ->
               ( row.t1_transform,
                 String.concat "/"
                   [ f2 row.t1_baseline; f2 row.t1_refined; f2 row.t1_measured ]
               ))
             t.Experiment.t1_rows );
    ("t2", rep (fun () -> Experiment.t2 ()));
    ("a1", rep (fun () -> Experiment.a1 ()));
    ("a2", fun () -> pair_facts (Experiment.a2 ()));
    ("a3", fun () -> pair_facts (Experiment.a3 ()));
    ("a4", rep (fun () -> Experiment.a4 ()));
    ("a5", rep (fun () -> Experiment.a5 ()));
    ( "a6",
      fun () ->
        let r = Experiment.a6 () in
        [ ( "agree",
            Printf.sprintf "%d/%d %s" r.Experiment.a6_agreeing
              r.Experiment.a6_total r.Experiment.a6_machine ) ] );
    ( "a7",
      fun () ->
        List.map
          (fun (s : Select.summary) ->
            ( s.Select.sm_policy,
              Printf.sprintf "%d/%d" s.Select.sm_optimal_picks
                s.Select.sm_kernels ))
          (Experiment.a7 ()).Experiment.a7_rows );
    ("a8", rep (fun () -> Experiment.a8 ()));
    ( "a9",
      fun () ->
        List.map
          (fun (row : Experiment.a9_row) ->
            ( Printf.sprintf "ic=%d" row.Experiment.a9_ic,
              Printf.sprintf "%s/%s (%d)" (f2 row.Experiment.a9_geo_all)
                (f2 row.Experiment.a9_geo_red) row.Experiment.a9_kernels ))
          (Experiment.a9 ()).Experiment.a9_rows );
    ("a10", rep (fun () -> Experiment.a10 ())) ]

(* Headline numbers as `vecmodel report` prints them at the paper's
   configuration (neon-a57/LLV and xeon-avx2/SLP, n = 32000, seed 1).
   README.md lists where EXPERIMENTS.md's prose gives other values. *)
let expected =
  [ ("f1", [ ("n", "116"); ("baseline (LLVM-style)", "0.238") ]);
    ("f2", [ ("n", "116"); ("L2 (raw counts)", "0.779");
             ("NNLS (raw counts)", "0.702") ]);
    ("f3", [ ("n", "116"); ("L2 (rated)", "0.915"); ("NNLS (rated)", "0.908") ]);
    ("f4", [ ("n", "116"); ("NNLS (fit on all)", "0.908");
             ("NNLS (LOOCV)", "0.855") ]);
    ("f5", [ ("n", "116"); ("L2 (LOOCV)", "0.842") ]);
    ("f6", [ ("n", "100"); ("baseline (LLVM-style)", "0.184") ]);
    ("f7", [ ("n", "100"); ("L2 (cost target)", "0.386");
             ("NNLS (cost target)", "0.362"); ("SVR (cost target)", "0.381") ]);
    ("f8", [ ("n", "100"); ("L2 (speedup target)", "0.845");
             ("NNLS (speedup target)", "0.823");
             ("SVR (speedup target)", "0.815") ]);
    ("f9", [ ("n", "116"); ("NNLS extended (no absint)", "0.915");
             ("NNLS absint (aligned-frac, const-trip)", "0.923") ]);
    ("f10", [ ("n", "116"); ("NNLS raw (normalized counts)", "0.743");
              ("NNLS opt (norm absint + ratio, hoist)", "0.926") ]);
    ("f11", [ ("n", "116"); ("L2 @ 20% outliers", "0.368");
              ("Huber @ 20% outliers", "0.899") ]);
    ("f12", [ ("n", "116"); ("NNLS deps (carried-dep, idiom columns)", "0.931") ]);
    ("f13", [ ("n", "116");
              ("NNLS cert (certified-safe, guard-free columns)", "0.931") ]);
    ("t1", [ ("kernel", "s122"); ("LLV", "6.40/2.66/4.05");
             ("SLP", "1.68/2.51/2.32") ]);
    ("t2", [ ("n", "116"); ("refined (NNLS rated, LOOCV)", "0.855") ]);
    ("a1", [ ("n", "116"); ("NNLS rated", "0.908");
             ("NNLS rated, no access split", "0.873") ]);
    ("a2", [ ("a:n", "116"); ("a:NNLS rated (128-bit)", "0.908");
             ("b:n", "115"); ("b:NNLS rated (256-bit)", "0.888") ]);
    ("a3", [ ("a:n", "116"); ("a:NNLS rated", "0.908"); ("b:n", "116");
             ("b:NNLS rated", "0.861") ]);
    ("a4", [ ("n", "116"); ("NNLS extended (LOOCV)", "0.862") ]);
    ("a5", [ ("n", "15"); ("typed-trained, typed test set", "0.694") ]);
    ("a6", [ ("agree", "151/151 neon-a57") ]);
    ("a7", [ ("fitted cost model", "127/151"); ("oracle", "151/151") ]);
    ("a8", [ ("n", "34"); ("TSVC-trained NNLS, app kernels", "0.908") ]);
    ("a9", [ ("ic=1", "1.57/3.30 (116)"); ("ic=2", "1.68/5.20 (115)");
             ("ic=4", "1.72/6.05 (115)") ]);
    ("a10", [ ("n", "116"); ("NNLS rated, cleaned IR", "0.911") ]) ]

(* The expected facts this driver's output missed, as printable lines. *)
let mismatches id facts =
  List.filter_map
    (fun (key, want) ->
      match List.assoc_opt key facts with
      | Some got when String.equal got want -> None
      | got ->
          Some
            (Printf.sprintf "%s %s: expected %s, got %s" id key want
               (Option.value ~default:"(missing)" got)))
    (List.assoc id expected)

(* --- passes ---------------------------------------------------------------- *)

(* One cold pass: clear the caches, then call every driver in report
   order.  Returns per-driver (id, seconds, mismatches). *)
let pass ?(after_driver = fun _ -> ()) () =
  Layers.cold_reset ();
  List.map
    (fun (id, run) ->
      let t0 = Common.now () in
      let facts = Spans.span ("grid." ^ id) run in
      let dt = Common.now () -. t0 in
      after_driver id;
      (id, dt, mismatches id facts))
    drivers

(* The child side of [run]: one cold pass in this process, reported on
   stdout as one line per driver ([op ID SECONDS MISMATCHES...]) and a
   last line [pass SECONDS PEAK_RSS_MIB]. *)
let pass_child () =
  let t0 = Common.now () in
  let ops = pass () in
  let dt = Common.now () -. t0 in
  List.iter
    (fun (id, op_s, bad) ->
      print_endline
        (String.concat "\t" ([ "op"; id; Printf.sprintf "%.9f" op_s ] @ bad)))
    ops;
  Printf.printf "pass\t%.9f\t%.6f\n%!" dt (Common.peak_rss_mb None)

(* Parse a child's report: driver ops, the pass time and its peak RSS. *)
let read_pass ic =
  let rec go ops =
    match In_channel.input_line ic with
    | None -> failwith "grid: pass child ended without a report"
    | Some line -> (
        match String.split_on_char '\t' line with
        | "op" :: id :: op_s :: bad -> go ((id, float_of_string op_s, bad) :: ops)
        | [ "pass"; dt; rss ] -> (List.rev ops, float_of_string dt, float_of_string rss)
        | _ -> failwith ("grid: bad line from pass child: " ^ line))
  in
  go []

(* Passes per run: a fixed number, so every run makes the same ops and the
   tail always falls on the same driver rank.  A pass takes 7-9 s on 2
   vCPUs: four at 30 s. *)
let passes_for ~seconds = max 1 (seconds * 2 / 15)

(* Each pass runs in a fresh process, as `vecmodel report` does: its
   set-up (start, registry, pool) is a set-up sample, and the memory
   layout of each process is drawn anew, so a run's medians average over
   four layouts instead of resting on one. *)
let run ~seconds ~spawn_pass =
  let passes = passes_for ~seconds in
  let results =
    List.init passes (fun _ ->
        let t0 = Common.now () in
        let pid, rd = spawn_pass () in
        let ic = Unix.in_channel_of_descr rd in
        Fun.protect
          ~finally:(fun () ->
            close_in ic;
            ignore (Common.waitpid_retry pid))
          (fun () ->
            if In_channel.input_line ic <> Some "ready" then
              failwith "grid: pass child did not report ready";
            let setup = Common.now () -. t0 in
            let ops, dt, rss = read_pass ic in
            (setup, ops, dt, rss)))
  in
  let ops = List.concat_map (fun (_, ops, _, _) -> ops) results in
  let elapsed = List.fold_left (fun acc (_, _, dt, _) -> acc +. dt) 0.0 results in
  let median_of f = Common.median (Array.of_list (List.map f results)) in
  let setup_s = median_of (fun (setup, _, _, _) -> setup) in
  let rss = median_of (fun (_, _, _, rss) -> rss) in
  let latencies = Array.of_list (List.map (fun (_, dt, _) -> dt) ops) in
  let bad = List.concat_map (fun (_, _, m) -> m) ops in
  let ok = List.length (List.filter (fun (_, _, m) -> m = []) ops) in
  let attempted = List.length ops in
  { Common.attempted;
    failed = attempted - ok;
    correct = ok = attempted && List.length ops = passes * List.length drivers;
    metrics =
      Common.end_to_end ~setup_s ~rss_mb:rss ~ok ~latencies ~elapsed;
    notes =
      [ Printf.sprintf
          "grid: %d cold passes of %d drivers, one fresh process each, %.2f s \
           per pass; set-up and peak RSS are medians over the passes"
          passes (List.length drivers) (elapsed /. float_of_int passes);
        Common.tail_note latencies ]
      @ List.sort_uniq compare bad }

(* Traced run: one untraced pass, then one pass with a span per driver
   call and a snapshot of the cache counters after each. *)
let run_traced () =
  ignore (pass ());
  let par0 = Vpar.Pool.stats () in
  let gc0 = Layers.gc_mark () in
  let untraced = pass () in
  let gc = Layers.gc_per_op gc0 ~ops:1 in
  let snapshots = ref [] in
  Spans.enabled := true;
  Spans.set_op 1;
  let traced =
    pass
      ~after_driver:(fun id ->
        let c = Dataset.cache_stats () and l = Experiment.loocv_cache_stats () in
        snapshots :=
          Printf.sprintf
            "after %-3s sample cache %4d hits %4d misses, loocv cache %2d \
             hits %2d misses"
            id c.Dataset.hits c.Dataset.misses l.Dataset.hits l.Dataset.misses
          :: !snapshots)
      ()
  in
  Spans.enabled := false;
  let counts = Layers.cache_counts () in
  let spans = Spans.all () in
  let self = Spans.per_op_self_medians spans in
  let total p = List.fold_left (fun acc (_, dt, _) -> acc +. dt) 0.0 p in
  let bad = List.concat_map (fun (_, _, m) -> m) (untraced @ traced) in
  let values =
    List.map (fun id -> ("grid." ^ id ^ "_s", self ("grid." ^ id))) Layers.grid_ids
    @ counts @ Layers.par_counts par0 @ gc
    @ [ ("trace.overhead_ms", 1000.0 *. (total traced -. total untraced)) ]
  in
  ( { Common.attempted = List.length (untraced @ traced);
      failed = List.length (List.filter (fun (_, _, m) -> m <> []) (untraced @ traced));
      correct = bad = [];
      metrics = Layers.complete values;
      notes =
        List.rev !snapshots
        @ [ Printf.sprintf "grid pass: untraced %.3f s, traced %.3f s"
              (total untraced) (total traced) ]
        @ List.sort_uniq compare bad },
    spans )

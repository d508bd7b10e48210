(* Reproduction harness: regenerates every table and figure of the paper
   (F1..F8, T1, T2) plus the ablations (A1, A2), then times the pipeline's
   own hot paths with Bechamel.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe f3 t2      # selected experiments
     dune exec bench/main.exe micro      # only the microbenchmarks
     dune exec bench/main.exe json F.json  # pipeline timings as JSON
     dune exec bench/main.exe exec-smoke # CI gate: closure >= 3x interp
*)

open Costmodel

let scatter_for ~title predicted samples =
  Printf.printf "\n   --- %s ---\n" title;
  Report.scatter ~xlabel:"measured speedup" ~ylabel:"estimated"
    (Dataset.measured_array samples)
    predicted

let run_f1 () =
  let r = Experiment.f1 () in
  Report.print r;
  (* The paper's figure is a scatter of estimated vs measured speedup. *)
  let machine = Vmachine.Machines.neon_a57 in
  let s = Experiment.samples ~machine ~transform:Dataset.Llv () in
  scatter_for ~title:"F1 scatter: baseline model (ARM)"
    (Dataset.baseline_array s) s

let run_f3_scatter () =
  let machine = Vmachine.Machines.neon_a57 in
  let s = Experiment.samples ~machine ~transform:Dataset.Llv () in
  let m =
    Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Rated
      ~target:Linmodel.Speedup s
  in
  scatter_for ~title:"F3 scatter: NNLS rated (ARM)" (Linmodel.predict_all m s) s

let run_t1 () =
  let t1 = Experiment.t1 () in
  Printf.printf "\n== T1: LLV vs SLP on kernel %s (xeon-avx2) ==\n" t1.t1_kernel;
  Printf.printf "   %-6s %18s %18s %18s\n" "pass" "baseline estimate"
    "refined estimate" "measured";
  List.iter
    (fun (r : Experiment.t1_row) ->
      Printf.printf "   %-6s %18.2f %18.2f %18.2f\n" r.t1_transform r.t1_baseline
        r.t1_refined r.t1_measured)
    t1.t1_rows;
  Printf.printf
    "   note: paper: aligned cost models let transformations be compared\n"

let run_a6 () =
  let r = Experiment.a6 () in
  Printf.printf
    "\n== A6: trace-driven validation of the analytic memory model (%s) ==\n"
    r.Experiment.a6_machine;
  Printf.printf
    "   analytic bottleneck level matches the simulated hierarchy on %d / %d kernels\n"
    r.Experiment.a6_agreeing r.Experiment.a6_total;
  Printf.printf "   %-10s %10s %10s %14s\n" "kernel" "analytic" "simulated"
    "bytes/elem";
  List.iter
    (fun (row : Experiment.a6_row) ->
      Printf.printf "   %-10s %10s %10s %14.1f%s\n" row.Experiment.a6_name
        row.Experiment.a6_analytic row.Experiment.a6_simulated
        row.Experiment.a6_bytes_per_elem
        (if row.Experiment.a6_agrees then "" else "   <- disagrees"))
    r.Experiment.a6_rows;
  Printf.printf
    "   note: ours: the roofline term of the machine model is backed by an\n";
  Printf.printf
    "   note: actual set-associative LRU hierarchy replaying each kernel's trace\n"

let run_a7 () =
  let r = Experiment.a7 () in
  Printf.printf
    "\n== A7: transformation selection with aligned cost models (%s) ==\n"
    r.Experiment.a7_machine;
  Printf.printf "   %-30s %14s %16s\n" "policy" "exec (Mcyc)" "optimal picks";
  List.iter
    (fun (s : Select.summary) ->
      Printf.printf "   %-30s %14.2f %10d / %d\n" s.Select.sm_policy
        (s.Select.sm_total_cycles /. 1e6)
        s.Select.sm_optimal_picks s.Select.sm_kernels)
    r.Experiment.a7_rows;
  Printf.printf
    "   note: the cost-targeted fit prices scalar, LLV and SLP code with one\n";
  Printf.printf
    "   note: weight vector, making the transformations directly comparable\n"

let run_a9 () =
  let r = Experiment.a9 () in
  Printf.printf "\n== A9: interleaving ablation (%s) ==\n" r.Experiment.a9_machine;
  Printf.printf "   %-6s %10s %22s %22s\n" "ic" "kernels" "geomean speedup (all)"
    "geomean (reductions)";
  List.iter
    (fun (row : Experiment.a9_row) ->
      Printf.printf "   %-6d %10d %22.2f %22.2f\n" row.Experiment.a9_ic
        row.Experiment.a9_kernels row.Experiment.a9_geo_all
        row.Experiment.a9_geo_red)
    r.Experiment.a9_rows;
  Printf.printf
    "   note: the paper's setup disables interleaving; enabling it mostly\n";
  Printf.printf
    "   note: helps latency-bound reductions (more accumulators), while\n";
  Printf.printf
    "   note: dependence legality removes distance-limited kernels at high ic\n"

let run_a11 () =
  Printf.printf "\n== A11: loop interchange as an enabling transform ==\n";
  Printf.printf "   %-10s %14s %16s %18s\n" "kernel" "as written"
    "after interchange" "unlocked speedup";
  let machine = Vmachine.Machines.neon_a57 in
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      if List.length e.kernel.Vir.Kernel.loops = 2 then begin
        let verdict k = if Vdeps.Dependence.vectorizable k then "vec" else "serial" in
        match Vvect.Interchange.apply e.kernel with
        | Error _ -> ()
        | Ok k' ->
            let unlocked =
              (not (Vdeps.Dependence.vectorizable e.kernel))
              && Vdeps.Dependence.vectorizable k'
            in
            let speedup =
              if unlocked then
                let vf = Vmachine.Descr.vf_for_kernel machine k' in
                match Vvect.Llv.vectorize ~vf k' with
                | Ok vk ->
                    Printf.sprintf "%.2f"
                      (Vmachine.Measure.measure machine ~n:32000 vk)
                        .Vmachine.Measure.speedup
                | Error _ -> "-"
              else "-"
            in
            Printf.printf "   %-10s %14s %16s %18s\n" e.kernel.Vir.Kernel.name
              (verdict e.kernel) (verdict k') speedup
      end)
    Tsvc.Registry.all;
  Printf.printf
    "   note: the transform trades the recurrence for column-strided accesses;\n";
  Printf.printf
    "   note: whether that pays is exactly a cost-model question (slide 15)\n"

(* Suite-level statistics: distribution and per-category breakdown of the
   measured speedups on the ARM machine. *)
let run_stats () =
  let machine = Vmachine.Machines.neon_a57 in
  let s = Experiment.samples ~machine ~transform:Dataset.Llv () in
  let measured = Dataset.measured_array s in
  Printf.printf "\n== Suite statistics (%s, LLV, n = %d) ==\n"
    machine.Vmachine.Descr.name Tsvc.Registry.default_n;
  Printf.printf "   geomean %.2f, median %.2f, min %.2f, max %.2f\n"
    (Vstats.Descriptive.geomean measured)
    (Vstats.Descriptive.median measured)
    (Vstats.Descriptive.minimum measured)
    (Vstats.Descriptive.maximum measured);
  Report.histogram ~label:"measured speedup distribution" measured;
  Printf.printf "\n   %-24s %8s %9s %8s %8s\n" "category" "kernels" "geomean"
    "min" "max";
  List.iter
    (fun cat ->
      let in_cat =
        List.filter (fun (x : Dataset.sample) -> x.category = cat) s
      in
      if in_cat <> [] then begin
        let m = Dataset.measured_array in_cat in
        Printf.printf "   %-24s %8d %9.2f %8.2f %8.2f\n"
          (Tsvc.Category.to_string cat) (List.length in_cat)
          (Vstats.Descriptive.geomean m)
          (Vstats.Descriptive.minimum m)
          (Vstats.Descriptive.maximum m)
      end)
    Tsvc.Category.all

let experiments : (string * (unit -> unit)) list =
  [ ("f1", run_f1);
    ("f2", fun () -> Report.print (Experiment.f2 ()));
    ( "f3",
      fun () ->
        Report.print (Experiment.f3 ());
        run_f3_scatter () );
    ("f4", fun () -> Report.print (Experiment.f4 ()));
    ("f5", fun () -> Report.print (Experiment.f5 ()));
    ("f6", fun () -> Report.print (Experiment.f6 ()));
    ("f7", fun () -> Report.print (Experiment.f7 ()));
    ("f8", fun () -> Report.print (Experiment.f8 ()));
    ("f9", fun () -> Report.print (Experiment.f9 ()));
    ("f10", fun () -> Report.print (Experiment.f10 ()));
    ("f11", fun () -> Report.print (Experiment.f11 ()));
    ("f12", fun () -> Report.print (Experiment.f12 ()));
    ("f13", fun () -> Report.print (Experiment.f13 ()));
    ("t1", run_t1);
    ("t2", fun () -> Report.print (Experiment.t2 ()));
    ("a1", fun () -> Report.print (Experiment.a1 ()));
    ( "a2",
      fun () ->
        let a, b = Experiment.a2 () in
        Report.print a;
        Report.print b );
    ( "a3",
      fun () ->
        let a, b = Experiment.a3 () in
        Report.print a;
        Report.print b );
    ("a4", fun () -> Report.print (Experiment.a4 ()));
    ("a5", fun () -> Report.print (Experiment.a5 ()));
    ("a6", fun () -> run_a6 ());
    ("a7", fun () -> run_a7 ());
    ("a8", fun () -> Report.print (Experiment.a8 ()));
    ("a9", fun () -> run_a9 ());
    ("a10", fun () -> Report.print (Experiment.a10 ()));
    ("a11", fun () -> run_a11 ());
    ("stats", fun () -> run_stats ()) ]

(* --- microbenchmarks ----------------------------------------------------- *)

let microbenchmarks () =
  let open Bechamel in
  let machine = Vmachine.Machines.neon_a57 in
  let kernels = Tsvc.Registry.kernels in
  let samples = Experiment.samples ~machine ~transform:Dataset.Llv () in
  let vectorizable =
    List.filter (fun k -> Vdeps.Dependence.vectorizable k) kernels
  in
  let tests =
    [ Test.make ~name:"dependence-analysis-151-kernels"
        (Staged.stage (fun () ->
             List.iter (fun k -> ignore (Vdeps.Dependence.vf_limit k)) kernels));
      Test.make ~name:"llv-vectorize-legal-kernels"
        (Staged.stage (fun () ->
             List.iter
               (fun k -> ignore (Vvect.Llv.vectorize ~vf:4 k))
               vectorizable));
      Test.make ~name:"slp-vectorize-legal-kernels"
        (Staged.stage (fun () ->
             List.iter
               (fun k -> ignore (Vvect.Slp.vectorize ~vf:4 k))
               vectorizable));
      Test.make ~name:"machine-estimate-151-kernels"
        (Staged.stage (fun () ->
             List.iter
               (fun k ->
                 ignore (Vmachine.Sched.scalar_estimate machine ~n:32000 k))
               kernels));
      Test.make ~name:"fit-nnls-rated"
        (Staged.stage (fun () ->
             ignore
               (Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Rated
                  ~target:Linmodel.Speedup samples)));
      Test.make ~name:"fit-l2-raw"
        (Staged.stage (fun () ->
             ignore
               (Linmodel.fit ~method_:Linmodel.L2 ~features:Linmodel.Raw
                  ~target:Linmodel.Speedup samples)));
      Test.make ~name:"fit-svr-rated"
        (Staged.stage (fun () ->
             ignore
               (Linmodel.fit ~method_:Linmodel.Svr ~features:Linmodel.Rated
                  ~target:Linmodel.Speedup samples)));
      Test.make ~name:"interp-s000-n4096"
        (Staged.stage (fun () ->
             ignore
               (Vinterp.Interp.run ~n:4096
                  (Tsvc.Registry.find_exn "s000").kernel)));
      Test.make ~name:"exec-closure-s000-n4096"
        (Staged.stage (fun () ->
             ignore
               (Vexec.Backend.run ~n:4096 Vexec.Backend.Closure
                  (Tsvc.Registry.find_exn "s000").kernel)))
    ]
  in
  let test = Test.make_grouped ~name:"pipeline" ~fmt:"%s/%s" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Printf.printf "\n== Microbenchmarks (ns per run, monotonic clock) ==\n";
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "   %-42s %14.0f\n" name est
      | Some _ | None -> Printf.printf "   %-42s %14s\n" name "n/a")
    (List.sort compare rows)

(* json OUT: per-experiment wall-clock timings of the full pipeline.

   Each experiment is timed twice: serial with a cold sample cache (the
   pre-PR-2 behavior: no domain pool, every sample rebuilt), then parallel
   with the cache warm — the steady state of a sweep that revisits a
   (machine, transform, config) combination.  A final pass times the whole
   suite sharing one cache across experiments.  The emitted file seeds the
   perf trajectory (BENCH_pipeline.json shape: one record per measurement,
   wall-clock seconds). *)

let json_experiments : (string * (unit -> unit)) list =
  [ ("F1", fun () -> ignore (Experiment.f1 ()));
    ("F2", fun () -> ignore (Experiment.f2 ()));
    ("F3", fun () -> ignore (Experiment.f3 ()));
    ("F4", fun () -> ignore (Experiment.f4 ()));
    ("F5", fun () -> ignore (Experiment.f5 ()));
    ("F6", fun () -> ignore (Experiment.f6 ()));
    ("F7", fun () -> ignore (Experiment.f7 ()));
    ("F8", fun () -> ignore (Experiment.f8 ()));
    ("T1", fun () -> ignore (Experiment.t1 ()));
    ("T2", fun () -> ignore (Experiment.t2 ()));
    ("A1", fun () -> ignore (Experiment.a1 ()));
    ("A2", fun () -> ignore (Experiment.a2 ()));
    ("A3", fun () -> ignore (Experiment.a3 ()));
    ("A4", fun () -> ignore (Experiment.a4 ()));
    ("A5", fun () -> ignore (Experiment.a5 ()));
    ("A6", fun () -> ignore (Experiment.a6 ()));
    ("A7", fun () -> ignore (Experiment.a7 ()));
    ("A8", fun () -> ignore (Experiment.a8 ()));
    ("F9", fun () -> ignore (Experiment.f9 ()));
    ("F10", fun () -> ignore (Experiment.f10 ()));
    ("F11", fun () -> ignore (Experiment.f11 ()));
    ("F12", fun () -> ignore (Experiment.f12 ()));
    ("F13", fun () -> ignore (Experiment.f13 ()));
    ( "ABSINT",
      fun () ->
        List.iter
          (fun (e : Tsvc.Registry.entry) ->
            ignore (Vanalysis.Absint.analyze ~vf:4 ~n:1024 e.kernel))
          Tsvc.Registry.all );
    ( "OPT",
      fun () ->
        ignore
          (Vanalysis.Opt.run_all
             (List.map
                (fun (e : Tsvc.Registry.entry) -> e.kernel)
                (Tsvc.Registry.all @ Vapps.Registry.as_tsvc_entries))) ) ]

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let bench_json out =
  (* Each completed experiment is checkpointed to a sidecar journal with
     atomic writes: killing the run mid-way loses at most the experiment
     in flight, and the next invocation resumes from the journal instead
     of re-timing finished experiments.  The journal is deleted once the
     JSON lands (itself an atomic write, so no truncated output either). *)
  let journal = Checkpoint.Journal.load (out ^ ".journal") in
  if Checkpoint.Journal.entries journal <> [] then
    Printf.printf "   resuming: %d checkpointed entr%s in %s.journal\n%!"
      (List.length (Checkpoint.Journal.entries journal))
      (if List.length (Checkpoint.Journal.entries journal) = 1 then "y"
       else "ies")
      out;
  let parse_pair payload =
    match String.split_on_char ' ' payload with
    | [ a; b ] -> (
        match (float_of_string_opt a, float_of_string_opt b) with
        | Some a, Some b -> Some (a, b)
        | _ -> None)
    | _ -> None
  in
  let time_one id f =
    (* Cold + serial: clear both caches and pin the pool off. *)
    Dataset.cache_clear ();
    Experiment.loocv_cache_clear ();
    Vpar.Pool.set_sequential true;
    let serial_cold = wall f in
    (* Warm + parallel: same experiment again, cache still populated. *)
    Vpar.Pool.set_sequential false;
    let parallel_warm = wall f in
    Printf.printf "   %-4s serial+cold %8.4fs   parallel+warm %8.4fs  (%.1fx)\n%!"
      id serial_cold parallel_warm
      (serial_cold /. Float.max 1e-9 parallel_warm);
    Checkpoint.Journal.record journal id
      (Printf.sprintf "%.6f %.6f" serial_cold parallel_warm);
    (id, serial_cold, parallel_warm)
  in
  let rows =
    List.map
      (fun (id, f) ->
        match
          Option.bind (Checkpoint.Journal.find journal id) parse_pair
        with
        | Some (serial_cold, parallel_warm) ->
            Printf.printf
              "   %-4s serial+cold %8.4fs   parallel+warm %8.4fs  (resumed)\n%!"
              id serial_cold parallel_warm;
            (id, serial_cold, parallel_warm)
        | None -> time_one id f)
      json_experiments
  in
  (* The whole suite over one shared cache: what a sweep actually pays. *)
  let suite_shared =
    match
      Option.bind
        (Checkpoint.Journal.find journal "SUITE")
        float_of_string_opt
    with
    | Some s ->
        Printf.printf "   SUITE parallel+shared %8.4fs  (resumed)\n%!" s;
        s
    | None ->
        Dataset.cache_clear ();
        Experiment.loocv_cache_clear ();
        let s =
          wall (fun () -> List.iter (fun (_, f) -> f ()) json_experiments)
        in
        Checkpoint.Journal.record journal "SUITE" (Printf.sprintf "%.6f" s);
        s
  in
  let stats = Dataset.cache_stats () in
  let lstats = Experiment.loocv_cache_stats () in
  let serial_total = List.fold_left (fun a (_, s, _) -> a +. s) 0.0 rows in
  (* The Opt pipeline over the full TSVC + apps registry: wall time plus
     the mean per-class instruction-count reduction it achieves. *)
  let opt_kernels =
    List.map
      (fun (e : Tsvc.Registry.entry) -> e.kernel)
      (Tsvc.Registry.all @ Vapps.Registry.as_tsvc_entries)
  in
  let opt_reports = ref [] in
  let opt_wall = wall (fun () -> opt_reports := Vanalysis.Opt.run_all opt_kernels) in
  let opt_mean_reduction =
    let n = float_of_int (List.length !opt_reports) in
    List.map
      (fun cls ->
        let total =
          List.fold_left
            (fun acc (r : Vanalysis.Opt.report) ->
              let count k = List.assoc cls (Vanalysis.Opt.class_mix k) in
              acc + count r.Vanalysis.Opt.rp_original
              - count r.Vanalysis.Opt.rp_normalized)
            0 !opt_reports
        in
        (cls, float_of_int total /. Float.max 1.0 n))
      Vanalysis.Opt.class_names
  in
  Printf.printf "   OPT  pipeline %8.4fs over %d kernels\n%!" opt_wall
    (List.length opt_kernels);
  (* The dependence engine over the same registry: graph-build wall time
     plus the legality oracle cross-checked against the validator —
     precision is the empirical soundness witness preserved in the
     artifact. *)
  let deps_configs = ref [] in
  let deps_wall =
    wall (fun () ->
        deps_configs := Vanalysis.Depsreport.crosscheck opt_kernels)
  in
  let deps_stats = Vanalysis.Depsreport.stats !deps_configs in
  Printf.printf
    "   DEPS crosscheck %8.4fs over %d configs (precision %.4f, recall \
     %.4f)\n%!"
    deps_wall
    (List.length !deps_configs)
    (Vanalysis.Depsreport.precision deps_stats)
    (Vanalysis.Depsreport.recall deps_stats);
  (* EXEC: the execution-engine tiers.  Raw kernel throughput over the
     full registry, then cold and warm registry-wide Dataset.build wall
     time per backend; the closure/interp cold-build ratio is the
     headline number the engine exists for. *)
  let exec_machine = Vmachine.Machines.neon_a57 in
  let exec_n = Tsvc.Registry.default_n in
  let parse_triple payload =
    match String.split_on_char ' ' payload with
    | [ a; b; c ] -> (
        match
          (float_of_string_opt a, float_of_string_opt b, float_of_string_opt c)
        with
        | Some a, Some b, Some c -> Some (a, b, c)
        | _ -> None)
    | _ -> None
  in
  let exec_rows =
    List.map
      (fun backend ->
        let name = Vexec.Backend.to_string backend in
        let id = "EXEC-" ^ name in
        match Option.bind (Checkpoint.Journal.find journal id) parse_triple with
        | Some (kps, cold, warm) ->
            Printf.printf
              "   EXEC %-8s %10.1f kernels/s   cold build %8.4fs   warm \
               %8.4fs  (resumed)\n%!"
              name kps cold warm;
            (name, kps, cold, warm)
        | None ->
            let kernels = Tsvc.Registry.kernels in
            let twall =
              wall (fun () ->
                  List.iter
                    (fun k ->
                      ignore (Vmachine.Measure.execute ~backend ~n:exec_n k))
                    kernels)
            in
            let kps =
              float_of_int (List.length kernels) /. Float.max 1e-9 twall
            in
            Vpar.Pool.set_sequential true;
            Dataset.cache_clear ();
            let build () =
              ignore
                (Dataset.build ~backend ~machine:exec_machine
                   ~transform:Dataset.Llv ~n:exec_n Tsvc.Registry.all)
            in
            let cold = wall build in
            let warm = wall build in
            Vpar.Pool.set_sequential false;
            Printf.printf
              "   EXEC %-8s %10.1f kernels/s   cold build %8.4fs   warm \
               %8.4fs\n%!"
              name kps cold warm;
            Checkpoint.Journal.record journal id
              (Printf.sprintf "%.6f %.6f %.6f" kps cold warm);
            (name, kps, cold, warm))
      Vexec.Backend.all
  in
  let exec_cold which =
    match
      List.find_opt (fun (name, _, _, _) -> String.equal name which) exec_rows
    with
    | Some (_, _, cold, _) -> cold
    | None -> Float.nan
  in
  let exec_speedup =
    exec_cold "interp" /. Float.max 1e-9 (exec_cold "closure")
  in
  Printf.printf "   EXEC cold-build speedup, closure over interp: %.1fx\n%!"
    exec_speedup;
  (* CERT: the relational bounds prover over the full registry — certified
     access fraction and certification wall time.  Every Dataset.build
     runs under these certificates, so the EXEC cold builds above already
     time licensed execution. *)
  let cert_frac, cert_wall =
    let id = "CERT" in
    match Option.bind (Checkpoint.Journal.find journal id) parse_pair with
    | Some (frac, cert_wall) ->
        Printf.printf
          "   CERT certify %8.4fs, certified %5.3f of accesses  (resumed)\n%!"
          cert_wall frac;
        (frac, cert_wall)
    | None ->
        let certs = ref [] in
        let cert_wall =
          wall (fun () ->
              certs :=
                List.map
                  (fun k -> Vanalysis.Cert.certify k)
                  Tsvc.Registry.kernels)
        in
        let total =
          List.fold_left
            (fun a (c : Vanalysis.Cert.t) ->
              a + Array.length c.Vanalysis.Cert.ct_accesses)
            0 !certs
        in
        let safe =
          List.fold_left
            (fun a (c : Vanalysis.Cert.t) -> a + c.Vanalysis.Cert.ct_safe)
            0 !certs
        in
        let frac = float_of_int safe /. Float.max 1.0 (float_of_int total) in
        Printf.printf "   CERT certify %8.4fs, certified %d/%d accesses\n%!"
          cert_wall safe total;
        Checkpoint.Journal.record journal id
          (Printf.sprintf "%.6f %.6f" frac cert_wall);
        (frac, cert_wall)
  in
  (* SAN: sanitizer overhead on a cold registry-wide Dataset.build on the
     closure tier — the shadow checksums are verified after every measured
     run and at pool join points, and the target is <= 20% over the
     unsanitized build. *)
  let san_row =
    let id = "SAN" in
    match Option.bind (Checkpoint.Journal.find journal id) parse_pair with
    | Some (off, on) ->
        Printf.printf
          "   SAN cold build off %8.4fs   sanitized %8.4fs  (resumed)\n%!"
          off on;
        (off, on)
    | None ->
        Vpar.Pool.set_sequential true;
        let backend = Vexec.Backend.Closure in
        let build () =
          Dataset.cache_clear ();
          wall (fun () ->
              ignore
                (Dataset.build ~backend ~machine:exec_machine
                   ~transform:Dataset.Llv ~n:exec_n Tsvc.Registry.all))
        in
        let off = build () in
        Vexec.Sanitize.set_enabled true;
        let on = build () in
        Vexec.Sanitize.set_enabled false;
        Vpar.Pool.set_sequential false;
        Printf.printf
          "   SAN cold build off %8.4fs   sanitized %8.4fs  (%+.1f%%)\n%!"
          off on
          ((on /. Float.max 1e-9 off -. 1.0) *. 100.0);
        Checkpoint.Journal.record journal id
          (Printf.sprintf "%.6f %.6f" off on);
        (off, on)
  in
  let san_off, san_on = san_row in
  (* SERVE: the serving tier under the deterministic virtual-time load
     simulation — one clean run, one seeded chaos run with the serve and
     pool sites armed.  Virtual time only, so both rows are byte-stable
     across machines and worker counts, and the chaos row doubles as the
     accounting witness: sent = answered + rejected even while requests
     are being dropped, slowed and spuriously rejected. *)
  let serve_clean =
    Vserve.Loadtest.run_sim ~seed:7 ~requests:400 ~servers:4
      ~arrival_rate:600.0 ~config:Vserve.Engine.default_config ()
  in
  let serve_chaos =
    let plan =
      match
        Vfault.Plan.parse
          "seed=11;serve.drop=0.02;serve.slow=0.08;serve.reject=0.02;pool.crash=0.01"
      with
      | Ok p -> p
      | Error m -> failwith m
    in
    Vfault.Inject.set_active plan;
    Fun.protect ~finally:Vfault.Inject.clear_override (fun () ->
        Vserve.Loadtest.run_sim ~seed:11 ~requests:300 ~servers:4
          ~arrival_rate:600.0 ~config:Vserve.Engine.default_config ())
  in
  List.iter
    (fun (label, (r : Vserve.Loadtest.result)) ->
      Printf.printf
        "   SERVE %-5s %d sent: %d answered, %d rejected, %d degraded/partial  \
         p99 %.6fs\n%!"
        label r.Vserve.Loadtest.lt_sent r.lt_answered r.lt_rejected
        (r.lt_degraded + r.lt_partials) r.lt_p99)
    [ ("clean", serve_clean); ("chaos", serve_chaos) ];
  let count n = Vjson.Num (float_of_int n) in
  let cache_json (c : Dataset.cache_stats) =
    Vjson.Obj
      [ ("hits", count c.hits); ("misses", count c.misses); ("entries", count c.entries) ]
  in
  let experiment (id, serial_cold, parallel_warm) =
    Vjson.(
      Obj
        [ ("id", Str id); ("serial_cold_s", Num serial_cold);
          ("parallel_warm_s", Num parallel_warm);
          ("speedup", Num (serial_cold /. Float.max 1e-9 parallel_warm)) ])
  in
  let exec_row (name, kps, cold, warm) =
    Vjson.(
      Obj
        [ ("backend", Str name); ("kernels_per_s", Num kps); ("build_cold_s", Num cold);
          ("build_warm_s", Num warm) ])
  in
  let doc =
    Vjson.(
      Obj
        [ ("benchmark", Str "pipeline");
          ("pool_workers", count (Vpar.Pool.default_size ()));
          ("experiments", List (List.map experiment rows));
          ( "suite",
            Obj
              [ ("serial_cold_total_s", Num serial_total);
                ("parallel_shared_cache_s", Num suite_shared) ] );
          ( "opt",
            Obj
              [ ("wall_s", Num opt_wall); ("kernels", count (List.length opt_kernels));
                ( "mean_class_reduction",
                  Obj (List.map (fun (c, v) -> (c, Num v)) opt_mean_reduction) ) ] );
          ( "deps",
            Obj
              [ ("wall_s", Num deps_wall); ("configs", count (List.length !deps_configs));
                ("tp", count deps_stats.Vanalysis.Depsreport.st_tp);
                ("fp", count deps_stats.st_fp); ("fn", count deps_stats.st_fn);
                ("tn", count deps_stats.st_tn);
                ("inapplicable", count deps_stats.st_inapplicable);
                ("precision", Num (Vanalysis.Depsreport.precision deps_stats));
                ("recall", Num (Vanalysis.Depsreport.recall deps_stats)) ] );
          ("exec", List (List.map exec_row exec_rows));
          ("exec_build_speedup_closure_vs_interp", Num exec_speedup);
          ( "cert",
            Obj [ ("certified_frac", Num cert_frac); ("certify_wall_s", Num cert_wall) ] );
          ( "san",
            Obj
              [ ("build_cold_s", Num san_off); ("build_cold_sanitized_s", Num san_on);
                ("overhead", Num (san_on /. Float.max 1e-9 san_off -. 1.0)) ] );
          ( "serve",
            Obj
              [ ("clean", Vserve.Loadtest.result_to_json serve_clean);
                ("chaos", Vserve.Loadtest.result_to_json serve_chaos) ] );
          ("cache", cache_json stats); ("loocv_cache", cache_json lstats) ])
  in
  Report.write_file out (Vjson.to_string doc ^ "\n");
  (* The output landed atomically; the checkpoints have served their
     purpose. *)
  Checkpoint.Journal.clear journal;
  Printf.printf "pipeline timings written to %s\n" out;
  Printf.printf "%s\n" (Report.cache_stats_string ())

(* exec-smoke: CI perf gate.  On a small registry slice the closure tier
   must beat the tree-walking interpreter by at least 3x on cold
   Dataset.build, or the execution engine has regressed into
   interpretation.  The threshold is deliberately far below the steady
   10x+ so scheduler noise on shared CI runners cannot flake it. *)
let exec_smoke () =
  let machine = Vmachine.Machines.neon_a57 in
  let entries = List.filteri (fun i _ -> i < 24) Tsvc.Registry.all in
  let n = Tsvc.Registry.default_n in
  Vpar.Pool.set_sequential true;
  Dataset.set_cache_enabled false;
  let build backend =
    wall (fun () ->
        ignore
          (Dataset.build ~backend ~machine ~transform:Dataset.Llv ~n entries))
  in
  (* One throwaway closure build first so allocation and code paths are
     warm for both timed runs. *)
  ignore (build Vexec.Backend.Closure);
  let interp = build Vexec.Backend.Interp in
  let closure = build Vexec.Backend.Closure in
  Dataset.set_cache_enabled true;
  Vpar.Pool.set_sequential false;
  let speedup = interp /. Float.max 1e-9 closure in
  Printf.printf
    "exec-smoke: %d kernels at n = %d: interp %.4fs, closure %.4fs (%.1fx)\n"
    (List.length entries) n interp closure speedup;
  if speedup < 3.0 then begin
    Printf.printf
      "exec-smoke: FAIL: closure tier under 3x over the interpreter\n";
    exit 1
  end
  else Printf.printf "exec-smoke: ok (threshold 3x)\n"

(* csv DIR: write per-experiment summary CSVs plus the F1/F3 scatters. *)
let export_csv dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let table (r : Report.result) =
    Report.write_file
      (Filename.concat dir (String.lowercase_ascii r.Report.id ^ "_summary.csv"))
      (Report.to_csv r)
  in
  List.iter table
    [ Experiment.f1 (); Experiment.f2 (); Experiment.f3 (); Experiment.f4 ();
      Experiment.f5 (); Experiment.f6 (); Experiment.f7 (); Experiment.f8 ();
      Experiment.t2 (); Experiment.a1 (); Experiment.a4 (); Experiment.a5 ();
      Experiment.a8 (); Experiment.a10 () ];
  let machine = Vmachine.Machines.neon_a57 in
  let s = Experiment.samples ~machine ~transform:Dataset.Llv () in
  let names = Array.of_list (List.map (fun (x : Dataset.sample) -> x.name) s) in
  let measured = Dataset.measured_array s in
  Report.write_file
    (Filename.concat dir "f1_scatter.csv")
    (Report.scatter_csv ~names ~measured ~predicted:(Dataset.baseline_array s));
  let m =
    Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Rated
      ~target:Linmodel.Speedup s
  in
  Report.write_file
    (Filename.concat dir "f3_scatter.csv")
    (Report.scatter_csv ~names ~measured ~predicted:(Linmodel.predict_all m s));
  Printf.printf "CSV tables written to %s/\n" dir

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let wanted =
    if args = [] then List.map fst experiments @ [ "micro" ] else args
  in
  Printf.printf
    "Cost Modelling for Vectorization on ARM - reproduction harness\n";
  Printf.printf "TSVC kernels: %d; problem size n = %d\n" Tsvc.Registry.count
    Tsvc.Registry.default_n;
  let rec run = function
    | [] -> ()
    | "csv" :: dir :: rest ->
        export_csv dir;
        run rest
    | "json" :: out :: rest ->
        bench_json out;
        run rest
    | "micro" :: rest ->
        microbenchmarks ();
        run rest
    | "exec-smoke" :: rest ->
        exec_smoke ();
        run rest
    | w :: rest ->
        (match List.assoc_opt w experiments with
        | Some f -> f ()
        | None -> Printf.printf "unknown experiment %s\n" w);
        run rest
  in
  run wanted

(* Reproduction harness: prints every experiment of
   [Experiment.registry] (the paper's figures and tables, this repo's
   extensions and ablations) with ASCII scatters after F1 and F3, then the
   bench-only extras: A11 (loop interchange), suite statistics and the
   pipeline's own hot paths timed with Bechamel.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe f3 t2      # selected experiments, a11 or stats
     dune exec bench/main.exe micro      # only the microbenchmarks
     dune exec bench/main.exe csv DIR    # summary and scatter CSVs
     dune exec bench/main.exe json F.json  # analysis timings as JSON
     dune exec bench/main.exe exec-smoke # CI gate: closure >= 3x interp
*)

open Costmodel

let arm_samples () =
  Experiment.samples ~machine:Vmachine.Machines.neon_a57 ~transform:Dataset.Llv
    ()

(* The paper's F1 and F3 figures are scatters of estimated vs measured
   speedup over the ARM sample set: (experiment id, model, prediction). *)
let scatters : (string * string * (Dataset.sample list -> float array)) list =
  [ ("f1", "baseline model (ARM)", Dataset.baseline_array);
    ( "f3",
      "NNLS rated (ARM)",
      fun s ->
        Linmodel.predict_all
          (Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Rated
             ~target:Linmodel.Speedup s)
          s ) ]

let run_experiment (e : Experiment.entry) =
  Experiment.print (e.run ());
  List.iter
    (fun (id, model, predict) ->
      if String.equal id e.id then begin
        let s = arm_samples () in
        Printf.printf "\n   --- %s scatter: %s ---\n"
          (String.uppercase_ascii id) model;
        Report.scatter ~xlabel:"measured speedup" ~ylabel:"estimated"
          (Dataset.measured_array s) (predict s)
      end)
    scatters

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

let extras = [ ("a11", run_a11); ("stats", run_stats) ]

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

(* json OUT: timings and verdicts of the analyses nothing else measures:
   the Opt pipeline and the dependence cross-check over the TSVC + apps
   registry, certification over TSVC, and the sanitizer's overhead on a
   cold registry-wide build.  The experiment grid, cold builds and serving
   are perfbench's workloads (BENCHMARK.json). *)

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let bench_json out =
  (* The CERT and SAN rows are checkpointed to a sidecar journal with
     atomic writes: killing the run mid-way loses at most the row in
     flight, and the next invocation resumes from the journal instead of
     re-timing finished rows.  The journal is deleted once the JSON lands
     (itself an atomic write, so no truncated output either). *)
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
        deps_configs := Vanalysis.Crosscheck.run Semantics opt_kernels)
  in
  let deps_stats = Vanalysis.Crosscheck.stats !deps_configs in
  Printf.printf
    "   DEPS crosscheck %8.4fs over %d configs (precision %.4f, recall \
     %.4f)\n%!"
    deps_wall
    (List.length !deps_configs)
    (Vanalysis.Crosscheck.precision deps_stats)
    (Vanalysis.Crosscheck.recall deps_stats);
  (* CERT: the relational bounds prover over the full registry — certified
     access fraction and certification wall time.  Every Dataset.build
     runs under these certificates. *)
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
                (Dataset.build ~backend ~machine:Vmachine.Machines.neon_a57
                   ~transform:Dataset.Llv ~n:Tsvc.Registry.default_n
                   Tsvc.Registry.all))
        in
        (* One throwaway build first, so the process-wide master buffers
           exist before either timed run. *)
        ignore (build ());
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
  let count n = Vjson.Num (float_of_int n) in
  let doc =
    Vjson.(
      Obj
        [ ("benchmark", Str "pipeline");
          ("pool_workers", count (Vpar.Pool.default_size ()));
          ( "opt",
            Obj
              [ ("wall_s", Num opt_wall); ("kernels", count (List.length opt_kernels));
                ( "mean_class_reduction",
                  Obj (List.map (fun (c, v) -> (c, Num v)) opt_mean_reduction) ) ] );
          ( "deps",
            Obj
              (("wall_s", Num deps_wall)
              :: Vanalysis.Crosscheck.summary_fields Semantics !deps_configs) );
          ( "cert",
            Obj [ ("certified_frac", Num cert_frac); ("certify_wall_s", Num cert_wall) ] );
          ( "san",
            Obj
              [ ("build_cold_s", Num san_off); ("build_cold_sanitized_s", Num san_on);
                ("overhead", Num (san_on /. Float.max 1e-9 san_off -. 1.0)) ] ) ])
  in
  Checkpoint.write_atomic out (Vjson.to_string doc ^ "\n");
  (* The output landed atomically; the checkpoints have served their
     purpose. *)
  Checkpoint.Journal.clear journal;
  Printf.printf "pipeline timings written to %s\n" out

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

(* csv DIR: one summary CSV per registry table plus the F1/F3 scatters. *)
let export_csv dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name contents =
    Checkpoint.write_atomic (Filename.concat dir name) contents
  in
  List.iter
    (fun (e : Experiment.entry) ->
      match e.run () with
      | Experiment.Tables rs ->
          List.iter
            (fun (r : Report.result) ->
              write (String.lowercase_ascii r.id ^ "_summary.csv") (Report.to_csv r))
            rs
      | T1 _ | A6 _ | A7 _ | A9 _ -> ())
    Experiment.registry;
  let s = arm_samples () in
  let names = Array.of_list (List.map (fun (x : Dataset.sample) -> x.name) s) in
  let measured = Dataset.measured_array s in
  List.iter
    (fun (id, _, predict) ->
      write (id ^ "_scatter.csv")
        (Report.scatter_csv ~names ~measured ~predicted:(predict s)))
    scatters;
  Printf.printf "CSV tables written to %s/\n" dir

(* Every argument resolves before anything runs: an unknown one is a usage
   error (exit 124) with nothing printed on stdout. *)
let () =
  let rec parse = function
    | [] -> []
    | "csv" :: dir :: rest -> (fun () -> export_csv dir) :: parse rest
    | "json" :: out :: rest -> (fun () -> bench_json out) :: parse rest
    | "micro" :: rest -> microbenchmarks :: parse rest
    | "exec-smoke" :: rest -> exec_smoke :: parse rest
    | w :: rest -> (
        match
          (Experiment.find w, List.assoc_opt (String.lowercase_ascii w) extras)
        with
        | Some e, _ -> (fun () -> run_experiment e) :: parse rest
        | None, Some f -> f :: parse rest
        | None, None ->
            Printf.eprintf
              "bench: unknown experiment %s (expected one of: %s)\n" w
              (String.concat ", "
                 (List.map (fun (e : Experiment.entry) -> e.id)
                    Experiment.registry
                 @ List.map fst extras));
            exit 124)
  in
  let actions =
    match List.tl (Array.to_list Sys.argv) with
    | [] ->
        List.map (fun e () -> run_experiment e) Experiment.registry
        @ List.map snd extras @ [ microbenchmarks ]
    | args -> parse args
  in
  Printf.printf
    "Cost Modelling for Vectorization on ARM - reproduction harness\n";
  Printf.printf "TSVC kernels: %d; problem size n = %d\n" Tsvc.Registry.count
    Tsvc.Registry.default_n;
  List.iter (fun f -> f ()) actions

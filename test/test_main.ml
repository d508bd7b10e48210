(* Aggregated test runner for the whole reproduction.

   The environment's fault plan (VECMODEL_FAULTS) is captured and then
   pinned to empty for the run: the golden/numeric suites assert exact
   values and must stay green under a fault-injection CI job.  The fault
   suite itself exercises injection through explicit plans (including the
   captured environment plan). *)

let () = Test_fault.captured_env_plan := Vfault.Inject.env_plan ()
let () = Vfault.Inject.set_active Vfault.Plan.empty

let () =
  Alcotest.run "vecmodel"
    [ ("vir", Test_vir.tests);
      ("linalg", Test_linalg.tests);
      ("stats", Test_stats.tests);
      ("deps", Test_deps.tests);
      ("interp", Test_interp.tests);
      ("vect", Test_vect.tests);
      ("machine", Test_machine.tests);
      ("tsvc", Test_tsvc.tests);
      ("costmodel", Test_costmodel.tests);
      ("vexec", Test_vexec.tests);
      ("exec", Test_exec.tests);
      ("cache", Test_cache.tests);
      ("persist", Test_persist.tests);
      ("select", Test_select.tests);
      ("apps", Test_apps.tests);
      ("golden", Test_golden.tests);
      ("opt", Test_opt.tests);
      ("scenarios", Test_scenarios.tests);
      ("coverage", Test_coverage.tests);
      ("extensions", Test_extensions.tests);
      ("analysis", Test_analysis.tests);
      ("effects", Test_effects.tests);
      ("crosscheck", Test_crosscheck.tests);
      ("absint", Test_absint.tests);
      ("par", Test_par.tests);
      ("fault", Test_fault.tests);
      ("serve", Test_serve.tests);
      ("json", Test_json.tests) ]

(* Tests for the cost-model library: features, baseline, fitting, LOOCV,
   metrics, and the experiment-level invariants that reproduce the paper's
   qualitative claims. *)

open Costmodel
module F = Feature

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let kern name = (Tsvc.Registry.find_exn name).kernel

let fval f cls = f.(F.index cls)

(* --- features ---------------------------------------------------------- *)

let test_feature_names_unique () =
  check_int "distinct names" F.dim
    (List.length (List.sort_uniq compare F.names))

let test_counts_s000 () =
  let f = F.counts (kern "s000") in
  checkf "one unit load" 1.0 (fval f F.F_load_unit);
  checkf "one unit store" 1.0 (fval f F.F_store_unit);
  checkf "one fp add" 1.0 (fval f F.F_fp_add);
  checkf "total 3" 3.0 (F.total f)

let test_counts_gather () =
  let f = F.counts (kern "vag") in
  checkf "gather classified" 1.0 (fval f F.F_load_gather);
  checkf "index load is unit" 1.0 (fval f F.F_load_unit)

let test_counts_reduction () =
  let f = F.counts (kern "vdotr") in
  checkf "reduction feature" 1.0 (fval f F.F_reduction);
  checkf "mul feature" 1.0 (fval f F.F_fp_mul)

let test_counts_strided () =
  let f = F.counts (kern "s127") in
  check "strided stores counted" true (fval f F.F_store_strided >= 2.0)

let test_rated_sums_to_one () =
  List.iter
    (fun (k : Vir.Kernel.t) ->
      let r = F.rated k in
      let t = Array.fold_left ( +. ) 0.0 r in
      check (k.Vir.Kernel.name ^ " rated sums to 1") true
        (abs_float (t -. 1.0) < 1e-9))
    Tsvc.Registry.kernels

let test_vcounts_contig () =
  let k = kern "s000" in
  let vk = Result.get_ok (Vvect.Llv.vectorize ~vf:4 k) in
  let f = F.vcounts vk in
  checkf "one wide load" 1.0 (fval f F.F_load_unit);
  checkf "no shuffles for contiguous code" 0.0 (fval f F.F_shuffle)

let test_vcounts_gather_expanded () =
  let k = kern "vag" in
  let vk = Result.get_ok (Vvect.Llv.vectorize ~vf:4 k) in
  let f = F.vcounts vk in
  checkf "gather counts per lane" 4.0 (fval f F.F_load_gather)

let test_rated_prop =
  QCheck.Test.make ~count:50 ~name:"rated features are a distribution"
    QCheck.(int_bound 5_000)
    (fun seed ->
      let k = Vsynth.Generator.kernel seed in
      let r = F.rated k in
      Array.for_all (fun v -> v >= 0.0 && v <= 1.0) r
      && abs_float (Array.fold_left ( +. ) 0.0 r -. 1.0) < 1e-9)

(* --- baseline ------------------------------------------------------------ *)

let test_baseline_positive () =
  List.iter
    (fun (k : Vir.Kernel.t) ->
      check (k.Vir.Kernel.name ^ " scalar cost > 0") true
        (Baseline.scalar_cost k > 0.0))
    Tsvc.Registry.kernels

let test_baseline_speedup_bounded () =
  let k = kern "s000" in
  let vk = Result.get_ok (Vvect.Llv.vectorize ~vf:4 k) in
  let p = Baseline.predicted_speedup vk in
  check "contiguous code predicted profitable" true (p > 1.0 && p <= 4.0 +. 1e-9)

let test_baseline_gather_cheaper_prediction () =
  let contig = Result.get_ok (Vvect.Llv.vectorize ~vf:4 (kern "s000")) in
  let gather = Result.get_ok (Vvect.Llv.vectorize ~vf:4 (kern "vag")) in
  check "gather predicted worse than contiguous" true
    (Baseline.predicted_speedup gather < Baseline.predicted_speedup contig)

(* --- dataset --------------------------------------------------------------- *)

let small_config = { Experiment.default_config with n = 8000 }

let arm_samples =
  lazy
    (Experiment.samples ~config:small_config ~machine:Vmachine.Machines.neon_a57
       ~transform:Dataset.Llv ())

let test_dataset_covers_legal_kernels () =
  let s = Lazy.force arm_samples in
  check "only legal kernels sampled" true
    (List.for_all (fun (x : Dataset.sample) -> x.vf >= 2) s);
  check "dataset size near 116" true
    (List.length s >= 110 && List.length s <= 125)

let test_dataset_measurements_positive () =
  List.iter
    (fun (x : Dataset.sample) ->
      check (x.name ^ " positive") true
        (x.measured > 0.0 && x.scalar_total > 0.0 && x.vector_total > 0.0))
    (Lazy.force arm_samples)

let test_dataset_consistency () =
  List.iter
    (fun (x : Dataset.sample) ->
      check (x.name ^ " totals consistent") true
        (abs_float ((x.scalar_total /. x.vector_total) -. x.measured) < 1e-6))
    (Lazy.force arm_samples)

(* --- fitting ----------------------------------------------------------------- *)

(* Plant a known linear relation in synthetic samples and check recovery. *)
let planted_samples () =
  let s = Lazy.force arm_samples in
  let w = Array.make F.dim 0.0 in
  w.(F.index F.F_load_unit) <- 0.5;
  w.(F.index F.F_fp_add) <- 1.0;
  w.(F.index F.F_reduction) <- 2.0;
  List.map
    (fun (x : Dataset.sample) ->
      let y = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i v -> v *. w.(i)) x.raw) in
      { x with Dataset.measured = y })
    s

let test_l2_recovers_planted () =
  let s = planted_samples () in
  let m = Linmodel.fit ~method_:Linmodel.L2 ~features:Linmodel.Raw ~target:Linmodel.Speedup s in
  List.iter
    (fun (x : Dataset.sample) ->
      check "planted relation recovered" true
        (abs_float (Linmodel.predict m x -. x.measured) < 1e-6))
    s

let test_nnls_weights_nonnegative () =
  let s = Lazy.force arm_samples in
  let m = Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Rated ~target:Linmodel.Speedup s in
  check "all weights >= 0" true (Array.for_all (fun w -> w >= 0.0) m.Linmodel.weights)

let test_l2_beats_baseline_correlation () =
  let s = Lazy.force arm_samples in
  let m = Linmodel.fit ~method_:Linmodel.L2 ~features:Linmodel.Rated ~target:Linmodel.Speedup s in
  let fitted = Metrics.evaluate ~predicted:(Linmodel.predict_all m s) s in
  let base = Metrics.evaluate ~predicted:(Dataset.baseline_array s) s in
  check "fitted correlation beats baseline" true (fitted.pearson > base.pearson +. 0.2)

let test_cost_target_predicts () =
  let s = Lazy.force arm_samples in
  let m = Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Raw ~target:Linmodel.Cost s in
  List.iter
    (fun (x : Dataset.sample) ->
      let p = Linmodel.predict m x in
      check (x.name ^ " cost-derived speedup finite") true
        (Float.is_finite p && p >= 0.0))
    s

let test_svr_fit_runs () =
  let s = Lazy.force arm_samples in
  let m = Linmodel.fit ~method_:Linmodel.Svr ~features:Linmodel.Rated ~target:Linmodel.Speedup s in
  let e = Metrics.evaluate ~predicted:(Linmodel.predict_all m s) s in
  check "svr correlation reasonable" true (e.pearson > 0.5)

(* --- cross-validation ---------------------------------------------------------- *)

let test_loocv_shape () =
  let s = Lazy.force arm_samples in
  let p = Crossval.loocv ~method_:Linmodel.Nnls ~features:Linmodel.Rated ~target:Linmodel.Speedup s in
  check_int "one prediction per sample" (List.length s) (Array.length p)

let test_loocv_close_to_fit () =
  let s = Lazy.force arm_samples in
  let fit =
    Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Rated ~target:Linmodel.Speedup s
  in
  let e_fit = Metrics.evaluate ~predicted:(Linmodel.predict_all fit s) s in
  let e_cv =
    Metrics.evaluate
      ~predicted:(Crossval.loocv ~method_:Linmodel.Nnls ~features:Linmodel.Rated ~target:Linmodel.Speedup s)
      s
  in
  check "loocv within reach of in-sample fit" true
    (e_cv.pearson > e_fit.pearson -. 0.25);
  check "loocv does not beat in-sample fit by much" true
    (e_cv.pearson < e_fit.pearson +. 0.05)

(* --- metrics --------------------------------------------------------------------- *)

let test_metrics_perfect_predictions () =
  let s = Lazy.force arm_samples in
  let e = Metrics.evaluate ~predicted:(Dataset.measured_array s) s in
  checkf "r = 1 for oracle predictions" 1.0 e.pearson;
  check_int "no false positives" 0 e.confusion.Vstats.Confusion.fp;
  check_int "no false negatives" 0 e.confusion.Vstats.Confusion.fn;
  check "oracle execution time attained" true
    (abs_float (e.exec_cycles -. e.oracle_cycles) /. e.oracle_cycles < 1e-9)

let test_metrics_never_vectorize () =
  let s = Lazy.force arm_samples in
  let e = Metrics.evaluate ~predicted:(Array.make (List.length s) 0.5) s in
  check "always-scalar cost" true
    (abs_float (e.exec_cycles -. e.scalar_cycles) < 1e-6)

(* --- experiments: the paper's qualitative claims ---------------------------------- *)

let row_eval (r : Report.result) label =
  let row =
    List.find (fun (x : Report.row) -> x.label = label) r.Report.rows
  in
  row.Report.eval

let test_f2_shape () =
  let r = Experiment.f2 ~config:small_config () in
  let base = row_eval r "baseline (LLVM-style)" in
  let l2 = row_eval r "L2 (raw counts)" in
  let nnls = row_eval r "NNLS (raw counts)" in
  check "L2 improves correlation" true (l2.pearson > base.pearson);
  check "NNLS improves correlation" true (nnls.pearson > base.pearson)

let test_f3_shape () =
  let r = Experiment.f3 ~config:small_config () in
  let raw = row_eval r "L2 (raw counts)" in
  let rated = row_eval r "L2 (rated)" in
  check "rated features beat raw counts" true (rated.pearson > raw.pearson)

let test_f4_f5_loocv_shape () =
  let r4 = Experiment.f4 ~config:small_config () in
  let fit = row_eval r4 "NNLS (fit on all)" in
  let cv = row_eval r4 "NNLS (LOOCV)" in
  let base = row_eval r4 "baseline (LLVM-style)" in
  check "loocv still beats baseline" true (cv.pearson > base.pearson);
  check "loocv below in-sample" true (cv.pearson <= fit.pearson +. 1e-9)

let test_f8_shape () =
  let r = Experiment.f8 ~config:small_config () in
  let base = row_eval r "baseline (LLVM-style)" in
  List.iter
    (fun label ->
      let e = row_eval r label in
      check (label ^ " beats baseline") true (e.pearson > base.pearson))
    [ "L2 (speedup target)"; "NNLS (speedup target)"; "SVR (speedup target)" ]

let test_t1_shape () =
  let t = Experiment.t1 ~config:small_config () in
  check_int "two transforms compared" 2 (List.length t.Experiment.t1_rows);
  List.iter
    (fun (row : Experiment.t1_row) ->
      check (row.t1_transform ^ " measured positive") true (row.t1_measured > 0.0))
    t.Experiment.t1_rows

let test_a1_access_split_matters () =
  let r = Experiment.a1 ~config:small_config () in
  let full = row_eval r "NNLS rated" in
  let collapsed = row_eval r "NNLS rated, no access split" in
  check "access-pattern features carry signal" true
    (full.pearson >= collapsed.pearson)

let tests =
  [ Alcotest.test_case "feature names" `Quick test_feature_names_unique;
    Alcotest.test_case "counts s000" `Quick test_counts_s000;
    Alcotest.test_case "counts gather" `Quick test_counts_gather;
    Alcotest.test_case "counts reduction" `Quick test_counts_reduction;
    Alcotest.test_case "counts strided" `Quick test_counts_strided;
    Alcotest.test_case "rated sums to one" `Quick test_rated_sums_to_one;
    Alcotest.test_case "vcounts contiguous" `Quick test_vcounts_contig;
    Alcotest.test_case "vcounts gather" `Quick test_vcounts_gather_expanded;
    QCheck_alcotest.to_alcotest test_rated_prop;
    Alcotest.test_case "baseline positive" `Quick test_baseline_positive;
    Alcotest.test_case "baseline bounded" `Quick test_baseline_speedup_bounded;
    Alcotest.test_case "baseline gather" `Quick test_baseline_gather_cheaper_prediction;
    Alcotest.test_case "dataset legal only" `Quick test_dataset_covers_legal_kernels;
    Alcotest.test_case "dataset positive" `Quick test_dataset_measurements_positive;
    Alcotest.test_case "dataset consistent" `Quick test_dataset_consistency;
    Alcotest.test_case "l2 recovers planted" `Quick test_l2_recovers_planted;
    Alcotest.test_case "nnls nonnegative" `Quick test_nnls_weights_nonnegative;
    Alcotest.test_case "fit beats baseline" `Quick test_l2_beats_baseline_correlation;
    Alcotest.test_case "cost target" `Quick test_cost_target_predicts;
    Alcotest.test_case "svr fit" `Quick test_svr_fit_runs;
    Alcotest.test_case "loocv shape" `Slow test_loocv_shape;
    Alcotest.test_case "loocv vs fit" `Slow test_loocv_close_to_fit;
    Alcotest.test_case "metrics oracle" `Quick test_metrics_perfect_predictions;
    Alcotest.test_case "metrics never-vectorize" `Quick test_metrics_never_vectorize;
    Alcotest.test_case "F2 shape" `Slow test_f2_shape;
    Alcotest.test_case "F3 shape" `Slow test_f3_shape;
    Alcotest.test_case "F4/F5 shape" `Slow test_f4_f5_loocv_shape;
    Alcotest.test_case "F8 shape" `Slow test_f8_shape;
    Alcotest.test_case "T1 shape" `Slow test_t1_shape;
    Alcotest.test_case "A1 shape" `Slow test_a1_access_split_matters ]

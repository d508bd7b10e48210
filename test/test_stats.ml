(* Tests for the statistics helpers. *)

module D = Vstats.Descriptive
module C = Vstats.Correlation
module Cf = Vstats.Confusion

let checkf = Alcotest.(check (float 1e-9))
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_mean_var () =
  checkf "mean" 2.5 (D.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  checkf "variance" (5.0 /. 3.0) (D.variance [| 1.0; 2.0; 3.0; 4.0 |])

let test_geomean () =
  checkf "geomean of 2 and 8" 4.0 (D.geomean [| 2.0; 8.0 |]);
  Alcotest.check_raises "non-positive rejected"
    (Invalid_argument "Descriptive.geomean: non-positive value") (fun () ->
      ignore (D.geomean [| 1.0; 0.0 |]))

let test_median () =
  checkf "odd" 3.0 (D.median [| 5.0; 1.0; 3.0 |]);
  checkf "even" 2.5 (D.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_rmse () =
  checkf "rmse" 1.0 (D.rmse [| 1.0; 2.0 |] [| 2.0; 1.0 |])

let test_minmax () =
  checkf "min" (-2.0) (D.minimum [| 3.0; -2.0; 7.0 |]);
  checkf "max" 7.0 (D.maximum [| 3.0; -2.0; 7.0 |])

let test_pearson_perfect () =
  checkf "identical" 1.0 (C.pearson [| 1.0; 2.0; 3.0 |] [| 1.0; 2.0; 3.0 |]);
  checkf "affine" 1.0 (C.pearson [| 1.0; 2.0; 3.0 |] [| 3.0; 5.0; 7.0 |]);
  checkf "inverted" (-1.0) (C.pearson [| 1.0; 2.0; 3.0 |] [| 3.0; 2.0; 1.0 |])

let test_pearson_constant () =
  checkf "degenerate is 0" 0.0 (C.pearson [| 1.0; 1.0; 1.0 |] [| 1.0; 2.0; 3.0 |])

let test_spearman_monotone () =
  (* Any monotone transform keeps rho = 1. *)
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  let y = Array.map (fun v -> exp v) x in
  checkf "monotone" 1.0 (C.spearman x y)

let test_spearman_ties () =
  let r = C.ranks [| 10.0; 20.0; 20.0; 30.0 |] in
  check "tied average ranks" true (r = [| 1.0; 2.5; 2.5; 4.0 |])

let test_pearson_symmetry_prop =
  QCheck.Test.make ~count:50 ~name:"pearson symmetric and scale invariant"
    QCheck.(list_of_size (Gen.int_range 3 20) (float_range 0.0 100.0))
    (fun xs ->
      let n = List.length xs in
      let x = Array.of_list xs in
      let st = Random.State.make [| n |] in
      let y = Array.init n (fun _ -> Random.State.float st 10.0) in
      let r1 = C.pearson x y and r2 = C.pearson y x in
      let r3 = C.pearson (Array.map (fun v -> (2.0 *. v) +. 5.0) x) y in
      abs_float (r1 -. r2) < 1e-9
      && abs_float (r1 -. r3) < 1e-6
      && r1 >= -1.0000001 && r1 <= 1.0000001)

let test_confusion_counts () =
  let t =
    Cf.of_speedups ~predicted:[| 2.0; 2.0; 0.5; 0.5 |]
      ~measured:[| 2.0; 0.5; 2.0; 0.5 |] ()
  in
  check_int "tp" 1 t.Cf.tp;
  check_int "fp" 1 t.Cf.fp;
  check_int "fn" 1 t.Cf.fn;
  check_int "tn" 1 t.Cf.tn;
  checkf "accuracy" 0.5 (Cf.accuracy t);
  check_int "total" 4 (Cf.total t)

let test_confusion_threshold () =
  let t =
    Cf.of_speedups ~threshold:1.2 ~predicted:[| 1.1 |] ~measured:[| 1.1 |] ()
  in
  check_int "below custom threshold is negative" 1 t.Cf.tn

let tests =
  [ Alcotest.test_case "mean/var" `Quick test_mean_var;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "median" `Quick test_median;
    Alcotest.test_case "rmse" `Quick test_rmse;
    Alcotest.test_case "min/max" `Quick test_minmax;
    Alcotest.test_case "pearson perfect" `Quick test_pearson_perfect;
    Alcotest.test_case "pearson degenerate" `Quick test_pearson_constant;
    Alcotest.test_case "spearman monotone" `Quick test_spearman_monotone;
    Alcotest.test_case "spearman ties" `Quick test_spearman_ties;
    QCheck_alcotest.to_alcotest test_pearson_symmetry_prop;
    Alcotest.test_case "confusion counts" `Quick test_confusion_counts;
    Alcotest.test_case "confusion threshold" `Quick test_confusion_threshold ]

(* --- bootstrap ------------------------------------------------------------ *)

module Bs = Vstats.Bootstrap

let test_bootstrap_deterministic () =
  let x = Array.init 30 float_of_int in
  let y = Array.map (fun v -> (2.0 *. v) +. sin v) x in
  let c1 = Bs.pearson_ci x y and c2 = Bs.pearson_ci x y in
  check "same ci twice" true (c1 = c2)

let test_bootstrap_brackets_point_estimate () =
  let st = Random.State.make [| 3 |] in
  let x = Array.init 60 (fun _ -> Random.State.float st 10.0) in
  let y = Array.map (fun v -> v +. Random.State.float st 3.0) x in
  let r = C.pearson x y in
  let lo, hi = Bs.pearson_ci x y in
  check "lo <= r <= hi" true (lo <= r && r <= hi);
  check "interval not degenerate" true (hi > lo)

let test_bootstrap_tightens_with_n () =
  let mk n =
    let st = Random.State.make [| 5 |] in
    let x = Array.init n (fun _ -> Random.State.float st 10.0) in
    let y = Array.map (fun v -> v +. Random.State.float st 2.0) x in
    let lo, hi = Bs.pearson_ci x y in
    hi -. lo
  in
  check "wider with fewer samples" true (mk 10 > mk 200)

let test_bootstrap_perfect_correlation () =
  let x = Array.init 20 float_of_int in
  let lo, hi = Bs.pearson_ci x x in
  check "degenerate at 1" true (lo > 0.999 && hi <= 1.0 +. 1e-9)

let test_bootstrap_rejects_tiny () =
  Alcotest.check_raises "too few" (Invalid_argument "Bootstrap.paired_ci")
    (fun () -> ignore (Bs.pearson_ci [| 1.0; 2.0 |] [| 1.0; 2.0 |]))

(* The intervals, bit for bit: [%h] of each bound and of both means, as
   recorded before the resamples shared scratch arrays and the sort moved to
   [Float.compare].  The inputs are exact small integers and quarters, so
   the bits do not depend on the host's libm.  A NaN sorts first. *)
let test_bootstrap_pinned_bits () =
  let x = Array.init 40 (fun i -> float_of_int (i * 37 mod 101)) in
  let y = Array.mapi (fun i v -> v +. (float_of_int (i * 53 mod 17) /. 4.0)) x in
  let y_nan = Array.mapi (fun i v -> if i = 7 then Float.nan else v) y in
  let z = Array.init 12 (fun i -> float_of_int (i mod 3)) in
  let w = Array.init 12 (fun i -> float_of_int ((i * 5) mod 7) -. 3.0) in
  List.iter
    (fun (name, iterations, xs, ys, want) ->
      let lo, hi = Bs.pearson_ci ~iterations xs ys in
      Alcotest.(check string) name want
        (Printf.sprintf "%h %h mean %h %h" lo hi (D.mean xs) (D.mean ys)))
    [ ( "affine", 1000, x, y,
        "0x1.ff6531a6a9c41p-1 0x1.ffbaffa803711p-1 mean 0x1.8eccccccccccdp+5 \
         0x1.9de6666666666p+5" );
      ( "affine, 400 resamples", 400, x, y,
        "0x1.ff5e0b6802274p-1 0x1.ffbc4d75d58efp-1 mean 0x1.8eccccccccccdp+5 \
         0x1.9de6666666666p+5" );
      ( "a NaN", 400, x, y_nan,
        "nan 0x1.ffb87e359317cp-1 mean 0x1.8eccccccccccdp+5 nan" );
      ( "ties", 1000, z, w,
        "0x1.fc3b835528247p-3 0x1.a53b8d6ec312p-1 mean 0x1p+0 0x0p+0" ) ]

let bootstrap_tests =
  [ Alcotest.test_case "bootstrap deterministic" `Quick test_bootstrap_deterministic;
    Alcotest.test_case "bootstrap brackets" `Quick test_bootstrap_brackets_point_estimate;
    Alcotest.test_case "bootstrap tightens" `Quick test_bootstrap_tightens_with_n;
    Alcotest.test_case "bootstrap perfect" `Quick test_bootstrap_perfect_correlation;
    Alcotest.test_case "bootstrap tiny" `Quick test_bootstrap_rejects_tiny;
    Alcotest.test_case "bootstrap pinned bits" `Quick test_bootstrap_pinned_bits ]

let tests = tests @ bootstrap_tests

(* Tests for the linear-algebra fitters: QR least squares, Lawson-Hanson
   NNLS, and linear SVR, including qcheck properties on random systems. *)

module Mat = Vlinalg.Mat
module Qr = Vlinalg.Qr
module Nnls = Vlinalg.Nnls
module Svr = Vlinalg.Svr

let checkf = Alcotest.(check (float 1e-6))
let check = Alcotest.(check bool)

let approx ?(eps = 1e-8) a b = abs_float (a -. b) <= eps *. (1.0 +. abs_float b)

let vec_approx ?(eps = 1e-8) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> approx ~eps x y) a b

(* --- Mat ---------------------------------------------------------------- *)

(* A rows x cols matrix of [f i j], drawn row by row, left to right. *)
let mat_init rows cols f =
  Mat.of_rows (List.init rows (fun i -> Array.init cols (fun j -> f i j)))

let test_mat_basics () =
  let m = mat_init 2 3 (fun i j -> float_of_int ((i * 3) + j)) in
  checkf "row-major (1,2)" 5.0 m.Mat.data.((1 * 3) + 2);
  let c = Mat.copy m in
  check "copy is a new array" true (c.Mat.data != m.Mat.data && c = m);
  Alcotest.(check int) "rows" 2 (Mat.rows m);
  Alcotest.(check int) "cols" 3 (Mat.cols m)

let test_mat_bounds () =
  let m = Mat.create 2 2 in
  Alcotest.check_raises "column out of range"
    (Invalid_argument "Mat.select_cols: column 2 of 2x2")
    (fun () -> ignore (Mat.select_cols m [ 0; 2 ]));
  Alcotest.check_raises "negative dimension"
    (Invalid_argument "Mat.create: negative dimension")
    (fun () -> ignore (Mat.create (-1) 2))

let test_mat_vec () =
  let m = Mat.of_rows [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  check "mat_vec" true (vec_approx (Mat.mat_vec m [| 1.0; 1.0 |]) [| 3.0; 7.0 |]);
  check "tmat_vec" true
    (vec_approx (Mat.tmat_vec m [| 1.0; 1.0 |]) [| 4.0; 6.0 |])

let test_select_cols () =
  let m = Mat.of_rows [ [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] ] in
  let s = Mat.select_cols m [ 2; 0 ] in
  Alcotest.(check int) "cols" 2 (Mat.cols s);
  check "selected" true (vec_approx s.Mat.data [| 3.0; 1.0; 6.0; 4.0 |])

let test_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_rows: ragged rows")
    (fun () -> ignore (Mat.of_rows [ [| 1.0 |]; [| 1.0; 2.0 |] ]))

(* --- QR ------------------------------------------------------------------ *)

let test_lstsq_exact () =
  (* 2x + y = 5, x + 3y = 10, exactly determined. *)
  let a = Mat.of_rows [ [| 2.0; 1.0 |]; [| 1.0; 3.0 |] ] in
  let x = Qr.lstsq a [| 5.0; 10.0 |] in
  check "exact solve" true (vec_approx ~eps:1e-10 x [| 1.0; 3.0 |])

let test_lstsq_overdetermined () =
  (* y = 2x + 1 sampled with consistent points. *)
  let xs = [ 0.0; 1.0; 2.0; 3.0; 4.0 ] in
  let a = Mat.of_rows (List.map (fun x -> [| x; 1.0 |]) xs) in
  let y = Array.of_list (List.map (fun x -> (2.0 *. x) +. 1.0) xs) in
  let w = Qr.lstsq a y in
  check "slope+intercept recovered" true (vec_approx ~eps:1e-10 w [| 2.0; 1.0 |])

let test_lstsq_residual_minimal () =
  (* Perturb one observation; the LS residual must be orthogonal to the
     column space (normal equations). *)
  let a = Mat.of_rows [ [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |] ] in
  let y = [| 1.0; 2.0; 4.0 |] in
  let w = Qr.lstsq a y in
  let r =
    let ax = Mat.mat_vec a w in
    Array.mapi (fun i v -> y.(i) -. v) ax
  in
  let atr = Mat.tmat_vec a r in
  check "A^T r = 0" true (vec_approx ~eps:1e-9 atr [| 0.0; 0.0 |])

let test_lstsq_singular () =
  let a = Mat.of_rows [ [| 1.0; 1.0 |]; [| 2.0; 2.0 |]; [| 3.0; 3.0 |] ] in
  check "singular raises" true
    (try
       ignore (Qr.lstsq a [| 1.0; 2.0; 3.0 |]);
       false
     with Qr.Singular _ -> true)

let test_lstsq_ridge_handles_singular () =
  let a = Mat.of_rows [ [| 1.0; 1.0 |]; [| 2.0; 2.0 |]; [| 3.0; 3.0 |] ] in
  let w = Qr.lstsq_ridge ~lambda:1e-6 a [| 2.0; 4.0; 6.0 |] in
  (* Minimum-norm-ish solution: w0 + w1 ~ 2, split evenly. *)
  check "ridge finite" true (Array.for_all Float.is_finite w);
  checkf "ridge sum" 2.0 (w.(0) +. w.(1));
  check "ridge symmetric" true (approx ~eps:1e-6 w.(0) w.(1))

(* --- NNLS ----------------------------------------------------------------- *)

let test_nnls_matches_ls_when_positive () =
  let xs = [ 0.0; 1.0; 2.0; 3.0; 4.0 ] in
  let a = Mat.of_rows (List.map (fun x -> [| x; 1.0 |]) xs) in
  let y = Array.of_list (List.map (fun x -> (2.0 *. x) +. 1.0) xs) in
  let w = Nnls.solve a y in
  check "unconstrained optimum recovered" true
    (vec_approx ~eps:1e-8 w [| 2.0; 1.0 |])

let test_nnls_clamps_negative () =
  (* Best unconstrained fit needs a negative coefficient; NNLS must clamp
     it to zero. *)
  let a = Mat.of_rows [ [| 1.0; 1.0 |]; [| 1.0; 2.0 |]; [| 1.0; 3.0 |] ] in
  let y = [| 3.0; 2.0; 1.0 |] (* decreasing: slope -1 *) in
  let w = Nnls.solve a y in
  check "nonnegative" true (Array.for_all (fun v -> v >= 0.0) w);
  checkf "slope clamped" 0.0 w.(1)

let test_nnls_zero_rhs () =
  let a = Mat.of_rows [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  let w = Nnls.solve a [| 0.0; 0.0 |] in
  check "zero solution" true (vec_approx w [| 0.0; 0.0 |])

(* KKT conditions: for x >= 0, gradient g = A^T(Ax - b) must satisfy
   g_j >= 0, and g_j ~ 0 wherever x_j > 0. *)
let nnls_kkt a y =
  let w = Nnls.solve a y in
  let r =
    let ax = Mat.mat_vec a w in
    Array.mapi (fun i _ -> ax.(i) -. y.(i)) ax
  in
  let g = Mat.tmat_vec a r in
  Array.for_all (fun v -> v >= 0.0) w
  && Array.for_all2
       (fun wj gj -> gj >= -1e-6 && (wj <= 1e-9 || abs_float gj <= 1e-6))
       w g

let test_nnls_kkt_prop =
  QCheck.Test.make ~count:50 ~name:"nnls satisfies KKT on random systems"
    QCheck.(pair (int_bound 1000) (int_range 2 5))
    (fun (seed, cols) ->
      let rows = cols + 3 in
      let st = Random.State.make [| seed |] in
      let a =
        mat_init rows cols (fun _ _ -> Random.State.float st 2.0 -. 0.5)
      in
      let y = Array.init rows (fun _ -> Random.State.float st 3.0 -. 1.0) in
      nnls_kkt a y)

let test_lstsq_recovers_random_prop =
  QCheck.Test.make ~count:50 ~name:"qr recovers planted weights"
    QCheck.(pair (int_bound 1000) (int_range 2 6))
    (fun (seed, cols) ->
      let rows = (2 * cols) + 3 in
      let st = Random.State.make [| seed + 7 |] in
      let w0 = Array.init cols (fun _ -> Random.State.float st 4.0 -. 2.0) in
      let a = mat_init rows cols (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
      let y = Mat.mat_vec a w0 in
      try
        let w = Qr.lstsq a y in
        vec_approx ~eps:1e-6 w w0
      with Qr.Singular _ -> true (* degenerate draw *))

(* --- SVR ------------------------------------------------------------------ *)

let test_svr_linear_recovery () =
  let st = Random.State.make [| 42 |] in
  let rows = 60 in
  let a = mat_init rows 3 (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let w0 = [| 1.5; -0.5; 2.0 |] in
  let y = Mat.mat_vec a w0 in
  let w = Svr.fit a y in
  check "svr close to planted weights" true (vec_approx ~eps:5e-2 w w0)

let test_svr_epsilon_insensitive () =
  (* Targets within the epsilon tube of zero need no support vectors. *)
  let a = Mat.of_rows [ [| 1.0 |]; [| 2.0 |]; [| 3.0 |] ] in
  let params = { Svr.default_params with epsilon = 10.0 } in
  let w = Svr.fit ~params a [| 0.5; -0.5; 0.2 |] in
  checkf "all inside tube" 0.0 w.(0)

let test_svr_deterministic () =
  let st = Random.State.make [| 9 |] in
  let a = mat_init 20 2 (fun _ _ -> Random.State.float st 1.0) in
  let y = Array.init 20 (fun i -> float_of_int i /. 10.0) in
  let w1 = Svr.fit a y and w2 = Svr.fit a y in
  check "same result twice" true (vec_approx ~eps:0.0 w1 w2)

(* --- bit-exact fits ----------------------------------------------------------
   The golden report prints three decimals; these pin every bit.  Each
   entry is the digest of the %h text of one weight vector fitted on F1's
   design (neon-a57/LLV at the default config: 116 rated rows for the
   speedup target, 232 raw-count block rows for the cost target), recorded
   while the fitters still read the matrix element by element through an
   accessor.  The rated design has all-zero columns, so L2 and Huber solve
   through the ridge fallback and the NNLS passive solves through plain QR. *)

let hex v = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") v))

let f1_pins =
  [ ("L2/speedup", "fee73207135acdd7f444a3e83152fdc4");
    ("NNLS/speedup", "9f19811a938c44ce51e7657ec2e210d3");
    ("Huber/speedup", "da09932b82abe7f636fe44f64ac76042");
    ("SVR/speedup", "3737235e1421534e3ef72c2f1fa2a531");
    ("L2/cost", "0bf6ecc85a1e5052db14b4900d392d16");
    ("NNLS/cost", "03c583547de1edb184edd21e78a7a478");
    ("Huber/cost", "58e444c6e02e9cc003329c145e4d26a4");
    ("SVR/cost", "fc9a49c3feb140dee23d14b7c93520c7");
    ("leverages 1e-6", "51a069999ba01d27c93af8b0196b70b7") ]

let pin label v =
  let got = Digest.to_hex (Digest.string (hex v)) in
  if not (String.equal got (List.assoc label f1_pins)) then
    Alcotest.failf "%s changed (digest %s): %s" label got (hex v)

let test_fits_bit_exact () =
  let open Costmodel in
  let samples =
    Dataset.build ~machine:Vmachine.Machines.neon_a57 ~transform:Dataset.Llv
      ~n:Tsvc.Registry.default_n Tsvc.Registry.all
  in
  Alcotest.(check int) "F1 rows" 116 (List.length samples);
  List.iter
    (fun target ->
      List.iter
        (fun method_ ->
          let m =
            Linmodel.fit ~method_ ~features:Linmodel.Rated ~target samples
          in
          pin
            (Linmodel.fit_method_to_string method_ ^ "/"
           ^ Linmodel.target_to_string target)
            m.Linmodel.weights)
        Linmodel.[ L2; Nnls; Huber; Svr ])
    Linmodel.[ Speedup; Cost ];
  let x = Mat.of_rows (List.map (fun (s : Dataset.sample) -> s.rated) samples) in
  pin "leverages 1e-6" (Qr.leverages ~lambda:1e-6 x);
  Alcotest.check_raises "plain leverages" (Qr.Singular "zero pivot at column 2")
    (fun () -> ignore (Qr.leverages x))

(* [lstsq_or_ridge] skips the plain solve of a design with an all-zero
   column; every design must get the lambda and the weight bits that trying
   [lstsq] first and falling back to [lstsq_ridge] gives.  With an infinity
   in an earlier column the plain solve does not raise (NaN reaches every
   pivot), so the shortcut must not fire there. *)
let test_zero_column_shortcut () =
  let st = Random.State.make [| 13 |] in
  let design poke =
    mat_init 30 6 (fun i j ->
        match poke i j with
        | Some v -> v
        | None -> if j = 2 then 0.0 else Random.State.float st 2.0 -. 1.0)
  in
  let y = Array.init 30 (fun i -> float_of_int (i mod 7) /. 3.0) in
  let text (lambda, w) = Printf.sprintf "%h: %s" lambda (hex w) in
  let after_infinities =
    design (fun i j -> if j = 0 && i < 2 then Some Float.infinity else None)
  in
  check "plain solve passes after infinities" true
    (match Qr.lstsq after_infinities y with
    | _ -> true
    | exception Qr.Singular _ -> false);
  List.iter
    (fun (label, a) ->
      let tried =
        try (0.0, Qr.lstsq a y)
        with Qr.Singular _ -> (1e-6, Qr.lstsq_ridge ~lambda:1e-6 a y)
      in
      Alcotest.(check string) label (text tried)
        (text (Qr.lstsq_or_ridge ~lambda:1e-6 a y)))
    [ ("zero column", design (fun _ _ -> None));
      ( "zero column and a NaN",
        design (fun i j -> if i = 4 && j = 3 then Some Float.nan else None) );
      ("zero column after infinities", after_infinities) ]

let tests =
  [ Alcotest.test_case "mat basics" `Quick test_mat_basics;
    Alcotest.test_case "mat bounds" `Quick test_mat_bounds;
    Alcotest.test_case "mat vec" `Quick test_mat_vec;
    Alcotest.test_case "select cols" `Quick test_select_cols;
    Alcotest.test_case "ragged rejected" `Quick test_ragged_rejected;
    Alcotest.test_case "lstsq exact" `Quick test_lstsq_exact;
    Alcotest.test_case "lstsq overdetermined" `Quick test_lstsq_overdetermined;
    Alcotest.test_case "lstsq residual orthogonal" `Quick test_lstsq_residual_minimal;
    Alcotest.test_case "lstsq singular" `Quick test_lstsq_singular;
    Alcotest.test_case "ridge on singular" `Quick test_lstsq_ridge_handles_singular;
    Alcotest.test_case "nnls = ls when positive" `Quick test_nnls_matches_ls_when_positive;
    Alcotest.test_case "nnls clamps" `Quick test_nnls_clamps_negative;
    Alcotest.test_case "nnls zero rhs" `Quick test_nnls_zero_rhs;
    QCheck_alcotest.to_alcotest test_nnls_kkt_prop;
    QCheck_alcotest.to_alcotest test_lstsq_recovers_random_prop;
    Alcotest.test_case "svr recovery" `Quick test_svr_linear_recovery;
    Alcotest.test_case "svr epsilon tube" `Quick test_svr_epsilon_insensitive;
    Alcotest.test_case "svr deterministic" `Quick test_svr_deterministic;
    Alcotest.test_case "fits bit-exact on F1's design" `Quick test_fits_bit_exact;
    Alcotest.test_case "zero-column shortcut" `Quick test_zero_column_shortcut ]

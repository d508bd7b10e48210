(* Leave-one-out cross-validation: each kernel is predicted by a model
   fitted on the other kernels, the paper's test for whether the fitted
   weights generalize rather than memorize.

   For L2 speedup fits the held-out predictions are analytic: with
   residual e_i and leverage h_i from a single QR factorization of the
   full design matrix, the leave-one-out prediction is
   y_i - e_i / (1 - h_i) — O(n·p²) total instead of n refits.  (The same
   identity holds for the ridge fallback with h computed from
   (XᵀX + λI)⁻¹.)  NNLS and SVR have no such identity, so they refit n
   times, fanned out over the shared domain pool; the sample set itself
   comes from Dataset's memo cache, so refits share one build. *)

let naive_one ~method_ ~features ~target samples (arr : Dataset.sample array) i =
  let training = List.filteri (fun j _ -> j <> i) samples in
  let m = Linmodel.fit ~method_ ~features ~target training in
  Linmodel.predict m arr.(i)

let loocv_naive ~method_ ~features ~target samples arr =
  Array.of_list
    (Vpar.Pool.parallel_map
       (naive_one ~method_ ~features ~target samples arr)
       (List.init (Array.length arr) Fun.id))

(* Mirrors Linmodel's L2 path: plain least squares, ridge on rank
   deficiency.  A leverage within 1e-10 of 1 means the left-out fit is
   determined by that very row and the identity divides by ~0; such rows
   (and any residual singularity) fall back to a naive refit. *)
let loocv_l2_speedup ~features samples (arr : Dataset.sample array) =
  let rows = List.map (Linmodel.features_of features) samples in
  let ys = Dataset.measured_array samples in
  let x = Vlinalg.Mat.of_rows rows in
  let lambda, weights = Vlinalg.Qr.lstsq_or_ridge ~lambda:1e-6 x ys in
  let h = Vlinalg.Qr.leverages ~lambda x in
  let fitted = Vlinalg.Mat.mat_vec x weights in
  Array.mapi
    (fun i _ ->
      let d = 1.0 -. h.(i) in
      if d < 1e-10 then
        naive_one ~method_:Linmodel.L2 ~features ~target:Linmodel.Speedup
          samples arr i
      else ys.(i) -. ((ys.(i) -. fitted.(i)) /. d))
    arr

let loocv ~method_ ~features ~target (samples : Dataset.sample list) =
  let arr = Array.of_list samples in
  match (method_, target) with
  | Linmodel.L2, Linmodel.Speedup when Array.length arr > 1 -> (
      try loocv_l2_speedup ~features samples arr
      with Vlinalg.Qr.Singular _ ->
        loocv_naive ~method_ ~features ~target samples arr)
  | _ -> loocv_naive ~method_ ~features ~target samples arr

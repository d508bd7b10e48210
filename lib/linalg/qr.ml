(* Least squares by Householder QR with column pivoting disabled (the fitting
   matrices here are small and well scaled).  A rank-deficient matrix
   raises [Singular]; a caller that must fit anyway retries with
   [lstsq_ridge], as [lstsq_or_ridge] does.  Element (i, j) of an
   m x n matrix is [data.(i * n + j)]. *)

exception Singular of string

(* Factor A (m x n, m >= n) in place into R (upper triangle) while applying
   the same reflections to b.  Returns the packed factorization. *)
let factorize a b =
  let m = Mat.rows a and n = Mat.cols a in
  if m < n then invalid_arg "Qr.factorize: need rows >= cols";
  if Array.length b <> m then invalid_arg "Qr.factorize: rhs size mismatch";
  let r = Mat.copy a in
  let d = r.Mat.data in
  let qtb = Array.copy b in
  for k = 0 to n - 1 do
    (* Householder vector for column k below the diagonal. *)
    let norm = ref 0.0 in
    for i = k to m - 1 do
      let v = d.((i * n) + k) in
      norm := !norm +. (v *. v)
    done;
    let norm = sqrt !norm in
    if norm > 0.0 then begin
      let rkk = d.((k * n) + k) in
      let alpha = if rkk > 0.0 then -.norm else norm in
      (* v = x - alpha * e1, normalized so v.(k) = 1 *)
      let vk = rkk -. alpha in
      if vk <> 0.0 then begin
        let v = Array.make m 0.0 in
        v.(k) <- 1.0;
        for i = k + 1 to m - 1 do
          v.(i) <- d.((i * n) + k) /. vk
        done;
        let vtv = ref 0.0 in
        for i = k to m - 1 do
          vtv := !vtv +. (v.(i) *. v.(i))
        done;
        let beta = 2.0 /. !vtv in
        (* Apply H = I - beta v v^T to the remaining columns of r. *)
        for j = k to n - 1 do
          let dot = ref 0.0 in
          for i = k to m - 1 do
            dot := !dot +. (v.(i) *. d.((i * n) + j))
          done;
          let s = beta *. !dot in
          for i = k to m - 1 do
            let ij = (i * n) + j in
            d.(ij) <- d.(ij) -. (s *. v.(i))
          done
        done;
        (* And to the right-hand side. *)
        let dot = ref 0.0 in
        for i = k to m - 1 do
          dot := !dot +. (v.(i) *. qtb.(i))
        done;
        let s = beta *. !dot in
        for i = k to m - 1 do
          qtb.(i) <- qtb.(i) -. (s *. v.(i))
        done
      end;
      d.((k * n) + k) <- alpha;
      for i = k + 1 to m - 1 do
        d.((i * n) + k) <- 0.0
      done
    end
  done;
  (r, qtb)

(* Solve the triangular system R x = (Q^T b)[0..n-1]. *)
let back_substitute r qtb =
  let n = Mat.cols r in
  let d = r.Mat.data in
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref qtb.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (d.((i * n) + j) *. x.(j))
    done;
    let rii = d.((i * n) + i) in
    if abs_float rii < 1e-12 then
      raise (Singular (Printf.sprintf "zero pivot at column %d" i));
    x.(i) <- !s /. rii
  done;
  x

(* Minimize ||A x - b||_2.  @raise Singular when A is (numerically) rank
   deficient. *)
let lstsq a b =
  let r, qtb = factorize a b in
  back_substitute r qtb

(* A with sqrt(lambda) I stacked below it: the ridge problem as plain
   least squares. *)
let augment ~lambda a =
  let m = Mat.rows a and n = Mat.cols a in
  let aug = Mat.create (m + n) n in
  Array.blit a.Mat.data 0 aug.Mat.data 0 (m * n);
  let sl = sqrt lambda in
  for j = 0 to n - 1 do
    aug.Mat.data.(((m + j) * n) + j) <- sl
  done;
  aug

(* Leverage scores: the diagonal of the hat matrix
     H = A (A^T A + lambda I)^-1 A^T.
   From A = QR (or the sqrt(lambda)-augmented A for ridge), the normal
   matrix is R^T R, so h_ii = a_i^T (R^T R)^-1 a_i = ||R^-T a_i||^2: one
   forward substitution per row, O(m n^2) total after the factorization.
   These are what make leave-one-out cross-validation of a least-squares
   fit analytic: the held-out residual is e_i / (1 - h_ii). *)
let leverages ?(lambda = 0.0) a =
  if lambda < 0.0 then invalid_arg "Qr.leverages: negative lambda";
  let m = Mat.rows a and n = Mat.cols a in
  let r =
    if lambda = 0.0 then fst (factorize a (Array.make m 0.0))
    else fst (factorize (augment ~lambda a) (Array.make (m + n) 0.0))
  in
  let ad = a.Mat.data and rd = r.Mat.data in
  let h = Array.make m 0.0 in
  let z = Array.make n 0.0 in
  for i = 0 to m - 1 do
    (* Forward-solve R^T z = a_i (R^T is lower triangular). *)
    for j = 0 to n - 1 do
      let s = ref ad.((i * n) + j) in
      for t = 0 to j - 1 do
        s := !s -. (rd.((t * n) + j) *. z.(t))
      done;
      let rjj = rd.((j * n) + j) in
      if abs_float rjj < 1e-12 then
        raise (Singular (Printf.sprintf "zero pivot at column %d" j));
      z.(j) <- !s /. rjj
    done;
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      acc := !acc +. (z.(j) *. z.(j))
    done;
    h.(i) <- !acc
  done;
  h

(* Ridge-regularized least squares: minimize ||Ax-b||^2 + lambda ||x||^2 by
   stacking sqrt(lambda) I below A.  Never singular for lambda > 0. *)
let lstsq_ridge ~lambda a b =
  if lambda < 0.0 then invalid_arg "Qr.lstsq_ridge: negative lambda";
  let baug = Array.append b (Array.make (Mat.cols a) 0.0) in
  lstsq (augment ~lambda a) baug

(* True when [lstsq a] must raise [Singular]: A has at least as many rows as
   columns, some column is exactly zero, and every entry lies within 1e100
   of zero.  A reflection maps a zero column to a zero column (its dot
   product with the Householder vector is zero), so that column's pivot
   stays zero and back-substitution raises.  The bound keeps every
   intermediate of the factorization finite, which the argument needs; a
   NaN or an infinity fails it. *)
let has_zero_column a =
  let n = Mat.cols a in
  let bounded = ref (Mat.rows a >= n) in
  let zero = Array.make n true in
  Array.iteri
    (fun i v ->
      if not (Float.abs v <= 1e100) then bounded := false;
      if v <> 0.0 then zero.(i mod n) <- false)
    a.Mat.data;
  !bounded && Array.exists Fun.id zero

(* Plain least squares, or ridge [lambda] when A is rank deficient; returns
   the lambda used (0.0 for the plain solve).  A design that cannot pass the
   plain solve skips its factorization. *)
let lstsq_or_ridge ~lambda a b =
  if has_zero_column a then (lambda, lstsq_ridge ~lambda a b)
  else try (0.0, lstsq a b) with Singular _ -> (lambda, lstsq_ridge ~lambda a b)

(* Non-negative least squares by the Lawson–Hanson active-set algorithm
   (Solving Least Squares Problems, 1974, ch. 23).  The paper fits its cost
   model with NNLS so that every per-instruction-class weight stays
   interpretable as a non-negative cost. *)

let tolerance = 1e-10

(* Unconstrained least squares restricted to the passive column set; columns
   not in the set get weight 0. *)
let solve_passive a b passive =
  let n = Mat.cols a in
  let idxs = List.filter (fun j -> passive.(j)) (List.init n Fun.id) in
  let z = Array.make n 0.0 in
  (match idxs with
  | [] -> ()
  | _ ->
      let sub = Mat.select_cols a idxs in
      let x =
        try Qr.lstsq sub b
        with Qr.Singular _ -> Qr.lstsq_ridge ~lambda:1e-8 sub b
      in
      List.iteri (fun pos j -> z.(j) <- x.(pos)) idxs);
  z

(* Minimize ||a x - b||_2 subject to x >= 0, in at most 10n iterations. *)
let solve a b =
  let m = Mat.rows a and n = Mat.cols a in
  if Array.length b <> m then invalid_arg "Nnls.solve: size mismatch";
  let max_iter = 10 * n in
  let passive = Array.make n false in
  let x = Array.make n 0.0 in
  let residual () =
    let ax = Mat.mat_vec a x in
    Array.init m (fun i -> b.(i) -. ax.(i))
  in
  let iter = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iter < max_iter do
    incr iter;
    (* Gradient of the objective: w = A^T (b - A x). *)
    let w = Mat.tmat_vec a (residual ()) in
    (* Most violated active constraint. *)
    let best = ref (-1) in
    Array.iteri
      (fun j wj ->
        if (not passive.(j)) && wj > tolerance then
          if !best < 0 || wj > w.(!best) then best := j)
      w;
    if !best < 0 then continue_ := false
    else begin
      passive.(!best) <- true;
      (* Inner loop: retreat while the passive solution leaves the feasible
         region. *)
      let inner = ref true in
      while !inner do
        let z = solve_passive a b passive in
        let feasible =
          Array.for_all
            (fun j -> (not passive.(j)) || z.(j) > tolerance)
            (Array.init n Fun.id)
        in
        if feasible then begin
          Array.blit z 0 x 0 n;
          inner := false
        end
        else begin
          (* Step from x toward z as far as feasibility allows. *)
          let alpha = ref infinity in
          for j = 0 to n - 1 do
            if passive.(j) && z.(j) <= tolerance then begin
              let denom = x.(j) -. z.(j) in
              if denom > 0.0 then alpha := min !alpha (x.(j) /. denom)
            end
          done;
          let alpha = if !alpha = infinity then 0.0 else !alpha in
          for j = 0 to n - 1 do
            if passive.(j) then begin
              x.(j) <- x.(j) +. (alpha *. (z.(j) -. x.(j)));
              if x.(j) <= tolerance then begin
                x.(j) <- 0.0;
                passive.(j) <- false
              end
            end
          done
        end
      done
    end
  done;
  x

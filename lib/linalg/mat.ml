(* Dense row-major matrices over float, sized for the fitting problems in
   this project (at most a few hundred rows and a few dozen columns).
   The fitters index [data] directly: a float read through a function
   the compiler does not inline comes back boxed, so an accessor would
   allocate on every element access. *)

type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let rows m = m.rows
let cols m = m.cols

let of_rows rows_list =
  match rows_list with
  | [] -> create 0 0
  | r0 :: _ ->
      let cols = Array.length r0 in
      let rows = List.length rows_list in
      if List.exists (fun r -> Array.length r <> cols) rows_list then
        invalid_arg "Mat.of_rows: ragged rows";
      let m = create rows cols in
      List.iteri
        (fun i r -> Array.blit r 0 m.data (i * cols) cols)
        rows_list;
      m

let copy m = { m with data = Array.copy m.data }

(* Select a subset of columns (used by the NNLS active-set iterations). *)
let select_cols m idxs =
  let idxs = Array.of_list idxs in
  Array.iter
    (fun j ->
      if j < 0 || j >= m.cols then
        invalid_arg
          (Printf.sprintf "Mat.select_cols: column %d of %dx%d" j m.rows
             m.cols))
    idxs;
  let k = Array.length idxs in
  let s = create m.rows k in
  for i = 0 to m.rows - 1 do
    for j = 0 to k - 1 do
      s.data.((i * k) + j) <- m.data.((i * m.cols) + idxs.(j))
    done
  done;
  s

let mat_vec m x =
  if Array.length x <> m.cols then invalid_arg "Mat.mat_vec: size mismatch";
  Array.init m.rows (fun i ->
      let s = ref 0.0 in
      for j = 0 to m.cols - 1 do
        s := !s +. (m.data.((i * m.cols) + j) *. x.(j))
      done;
      !s)

(* A^T y without materializing the transpose. *)
let tmat_vec m y =
  if Array.length y <> m.rows then invalid_arg "Mat.tmat_vec: size mismatch";
  let out = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let yi = y.(i) in
    if yi <> 0.0 then
      for j = 0 to m.cols - 1 do
        out.(j) <- out.(j) +. (m.data.((i * m.cols) + j) *. yi)
      done
  done;
  out

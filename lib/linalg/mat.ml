(* Dense row-major matrices over float, sized for the fitting problems in
   this project (at most a few hundred rows and a few dozen columns). *)

type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg (Printf.sprintf "Mat.get (%d,%d) of %dx%d" i j m.rows m.cols);
  m.data.((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg (Printf.sprintf "Mat.set (%d,%d) of %dx%d" i j m.rows m.cols);
  m.data.((i * m.cols) + j) <- v

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

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

let row m i = Array.sub m.data (i * m.cols) m.cols

(* Select a subset of columns (used by the NNLS active-set iterations). *)
let select_cols m idxs =
  let idxs = Array.of_list idxs in
  init m.rows (Array.length idxs) (fun i j -> get m i idxs.(j))

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


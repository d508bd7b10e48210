(* Summary statistics used throughout the evaluation. *)

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.mean: empty";
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    sum := !sum +. xs.(i)
  done;
  !sum /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Descriptive.variance: need >= 2 samples";
  let m = mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
  /. float_of_int (n - 1)

(* Geometric mean; all inputs must be positive.  The paper reports speedups,
   for which the geometric mean is the standard aggregate. *)
let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.geomean: empty";
  let s =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Descriptive.geomean: non-positive value";
        acc +. log x)
      0.0 xs
  in
  exp (s /. float_of_int n)

let rmse a b =
  let n = Array.length a in
  if n = 0 || n <> Array.length b then invalid_arg "Descriptive.rmse";
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    let d = a.(i) -. b.(i) in
    s := !s +. (d *. d)
  done;
  sqrt (!s /. float_of_int n)

let minimum xs = Array.fold_left Float.min xs.(0) xs
let maximum xs = Array.fold_left Float.max xs.(0) xs

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.median: empty";
  let s = Array.copy xs in
  Array.sort compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

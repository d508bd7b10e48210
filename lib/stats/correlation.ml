(* Correlation coefficients.  The paper's headline metric is the correlation
   between estimated and measured speedup. *)

let pearson a b =
  let n = Array.length a in
  if n < 2 || n <> Array.length b then invalid_arg "Correlation.pearson";
  let ma = Descriptive.mean a and mb = Descriptive.mean b in
  let num = ref 0.0 and da = ref 0.0 and db = ref 0.0 in
  for i = 0 to n - 1 do
    let xa = a.(i) -. ma and xb = b.(i) -. mb in
    num := !num +. (xa *. xb);
    da := !da +. (xa *. xa);
    db := !db +. (xb *. xb)
  done;
  let denom = sqrt (!da *. !db) in
  if denom = 0.0 then 0.0 else !num /. denom

(* Fractional ranks with ties averaged, as Spearman requires. *)
let ranks xs =
  let n = Array.length xs in
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> compare xs.(i) xs.(j)) order;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(order.(!j + 1)) = xs.(order.(!i)) do
      incr j
    done;
    (* Positions !i..!j are tied; assign the average rank (1-based). *)
    let avg = float_of_int (!i + !j + 2) /. 2.0 in
    for k = !i to !j do
      r.(order.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let spearman a b = pearson (ranks a) (ranks b)

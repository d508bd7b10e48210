(* Binary benefit classification: "should this loop be vectorized?".
   Positive = vectorization predicted/measured beneficial (speedup above the
   threshold, 1.0 unless stated otherwise).

   A false positive vectorizes a loop that then runs slower; a false negative
   leaves measured speedup on the table.  The paper counts both. *)

type t = { tp : int; tn : int; fp : int; fn : int }

let empty = { tp = 0; tn = 0; fp = 0; fn = 0 }

let add t ~predicted ~actual =
  match (predicted, actual) with
  | true, true -> { t with tp = t.tp + 1 }
  | false, false -> { t with tn = t.tn + 1 }
  | true, false -> { t with fp = t.fp + 1 }
  | false, true -> { t with fn = t.fn + 1 }

(* Build from predicted and measured speedups. *)
let of_speedups ?(threshold = 1.0) ~predicted ~measured () =
  let n = Array.length predicted in
  if n <> Array.length measured then invalid_arg "Confusion.of_speedups";
  let t = ref empty in
  for i = 0 to n - 1 do
    t :=
      add !t
        ~predicted:(predicted.(i) > threshold)
        ~actual:(measured.(i) > threshold)
  done;
  !t

let total t = t.tp + t.tn + t.fp + t.fn

let accuracy t =
  let n = total t in
  if n = 0 then 0.0 else float_of_int (t.tp + t.tn) /. float_of_int n


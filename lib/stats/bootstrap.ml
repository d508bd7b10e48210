(* Percentile bootstrap confidence intervals, used to report correlation
   results with uncertainty (the paper's scatter plots carry no error bars;
   we add them as part of making the reproduction auditable). *)

(* Deterministic xorshift PRNG: confidence intervals must reproduce. *)
let make_rng seed =
  let state = ref (max 1 (seed land max_int)) in
  fun bound ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state mod bound

(* The 95% percentile CI of a paired statistic under resampling with
   replacement, from a fixed seed.  Every resample is drawn into the same
   pair of scratch arrays, so [stat] must not keep them. *)
let paired_ci ~iterations stat xs ys =
  let n = Array.length xs in
  if n < 3 || n <> Array.length ys then invalid_arg "Bootstrap.paired_ci";
  let alpha = 0.05 in
  let rand = make_rng 7 in
  let bx = Array.make n 0.0 and by = Array.make n 0.0 in
  let stats =
    Array.init iterations (fun _ ->
        for i = 0 to n - 1 do
          let j = rand n in
          bx.(i) <- xs.(j);
          by.(i) <- ys.(j)
        done;
        stat bx by)
  in
  Array.sort Float.compare stats;
  let pick q =
    let idx =
      int_of_float (q *. float_of_int (iterations - 1)) |> max 0
      |> min (iterations - 1)
    in
    stats.(idx)
  in
  (pick (alpha /. 2.0), pick (1.0 -. (alpha /. 2.0)))

let pearson_ci ?(iterations = 1000) xs ys =
  paired_ci ~iterations Correlation.pearson xs ys


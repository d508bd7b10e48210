(* Static array-bounds analysis.

   Both subscripts and extents are (piecewise) linear in the problem size n,
   so an access that is in bounds at a spread of small witness sizes and at
   one very large size is in bounds for every practical size: any
   coefficient-level violation (a subscript growing faster than the extent)
   must show at the large witness, and any constant-offset violation shows
   at the small ones.  Indirect accesses are covered by the index-array
   contract (values in [0, n)) and skipped here.

   A flat subscript is affine in every loop variable and integer parameter,
   so over the rectangular iteration box its extrema are attained at the
   corners — and every corner is a real iteration point.  Evaluating the
   corners exactly therefore yields no over-approximation (the historical
   per-dimension extrema lost this when one variable appeared in both
   dimensions of a 2-d access) and splits each violation into a verdict:

   - [Proven]: a corner violates with the interpreter's *default* parameter
     bindings — running the kernel would trap at that iteration;
   - [Possible]: corners are clean at the defaults, but violate for some
     parameter values inside the contract [1, 4] the interpreter's bindings
     are drawn from. *)

open Kernel

let witness_sizes = [ 4; 5; 7; 8; 16; 100; 101; 1 lsl 20 ]

type violation = {
  v_array : string;
  v_pos : int;  (* body position of the access *)
  v_n : int;  (* witness problem size *)
  v_index : int;  (* offending flat index *)
  v_extent : int;
}

type verdict = Proven | Possible

type classified = { c_verdict : verdict; c_violation : violation }

let pp_violation fmt v =
  Format.fprintf fmt
    "instruction %d indexes %s[%d] outside extent %d at n = %d" v.v_pos
    v.v_array v.v_index v.v_extent v.v_n

(* Interpreter default for the parameter at position [i]: 1 + 0.5(i+1),
   truncated the way subscript evaluation reads it. *)
let param_default k p =
  let rec pos i = function
    | [] -> None
    | q :: _ when String.equal q p -> Some i
    | _ :: tl -> pos (i + 1) tl
  in
  match pos 0 k.params with
  | Some i -> Some (int_of_float (1.0 +. (0.5 *. float_of_int (i + 1))))
  | None -> None

(* Contract range for a parameter in a subscript: the [1, 4] window the
   environment's data contracts are drawn from, stretched to include the
   actual default binding. *)
let param_contract k p =
  match param_default k p with
  | Some d -> (min 1 d, max 4 d)
  | None -> (1, 4)

(* Enumerate every assignment of [choices = [(key, [v1; v2; ...]); ...]],
   calling [f] with each complete assignment.  Capped well above anything a
   2-loop kernel with a couple of parameters can produce. *)
let iter_corners choices f =
  let rec go acc = function
    | [] -> f acc
    | (key, vs) :: rest -> List.iter (fun v -> go ((key, v) :: acc) rest) vs
  in
  let combos =
    List.fold_left (fun acc (_, vs) -> acc * List.length vs) 1 choices
  in
  if combos <= 1024 then go [] choices

let dedup_ints vs = List.sort_uniq compare vs

(* Exact flat index of an affine access at one corner assignment. *)
let eval_dims ~n ~n2 dims ~vars ~params =
  let eval_dim ~ndims (d : Instr.dim) =
    let dim_bound = if ndims >= 2 then n2 else n in
    let base = if d.Instr.rel_n then dim_bound - 1 else 0 in
    let vterm =
      List.fold_left
        (fun acc (v, c) ->
          match List.assoc_opt v vars with
          | Some value -> acc + (c * value)
          | None -> acc)
        0 d.Instr.terms
    in
    let pterm =
      List.fold_left
        (fun acc (p, c) ->
          match List.assoc_opt p params with
          | Some value -> acc + (c * value)
          | None -> acc)
        0 d.Instr.pterms
    in
    base + vterm + pterm + d.Instr.off
  in
  match dims with
  | [ d ] -> Some (eval_dim ~ndims:1 d)
  | [ d0; d1 ] -> Some ((eval_dim ~ndims:2 d0 * n2) + eval_dim ~ndims:2 d1)
  | _ -> None

(* Classify one kernel at one witness size. *)
let classify_at ~n (k : t) =
  let n2 = isqrt n in
  let executes = List.for_all (fun (l : loop) -> iterations ~n l > 0) k.loops in
  if not executes then []
  else begin
    let var_choices =
      List.map
        (fun (l : loop) ->
          let iters = iterations ~n l in
          let last = l.start + ((iters - 1) * l.step) in
          (l.var, dedup_ints [ l.start; last ]))
        k.loops
    in
    let results = ref [] in
    let check_addr pos = function
      | Instr.Indirect _ -> ()
      | Instr.Affine { arr; dims } -> (
          match find_array k arr with
          | None -> ()
          | Some decl ->
              let extent = extent_elems ~n decl.arr_extent in
              let dim_params =
                dedup_ints
                  (List.concat_map
                     (fun (d : Instr.dim) -> List.map fst d.Instr.pterms)
                     dims)
              in
              (* Worst violating corner under the given parameter choices. *)
              let worst param_choices =
                let found = ref None in
                iter_corners var_choices (fun vars ->
                    iter_corners param_choices (fun params ->
                        match eval_dims ~n ~n2 dims ~vars ~params with
                        | Some i when i < 0 || i >= extent -> (
                            match !found with
                            | Some j
                              when abs (if j < 0 then j else j - extent)
                                   >= abs (if i < 0 then i else i - extent) ->
                                ()
                            | _ -> found := Some i)
                        | Some _ | None -> ()));
                !found
              in
              let defaults =
                List.map
                  (fun p ->
                    (p, [ Option.value (param_default k p) ~default:1 ]))
                  dim_params
              in
              let contract =
                List.map
                  (fun p ->
                    let lo, hi = param_contract k p in
                    (p, dedup_ints [ lo; hi ]))
                  dim_params
              in
              let record verdict i =
                results :=
                  { c_verdict = verdict;
                    c_violation =
                      { v_array = arr; v_pos = pos; v_n = n; v_index = i;
                        v_extent = extent } }
                  :: !results
              in
              (match worst defaults with
              | Some i -> record Proven i
              | None -> (
                  match worst contract with
                  | Some i -> record Possible i
                  | None -> ())))
    in
    List.iteri
      (fun pos instr ->
        match instr with
        | Instr.Load { addr; _ } | Instr.Store { addr; _ } ->
            check_addr pos addr
        | _ -> ())
      k.body;
    List.rev !results
  end

(* Classification over all witness sizes. *)
let classify (k : t) = List.concat_map (fun n -> classify_at ~n k) witness_sizes

(* Plain violations, verdicts erased (provably safe iff empty). *)
let check_at ~n (k : t) = List.map (fun c -> c.c_violation) (classify_at ~n k)

let check (k : t) = List.concat_map (fun n -> check_at ~n k) witness_sizes


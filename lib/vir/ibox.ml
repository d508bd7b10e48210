(* Exact integer intervals and loop iteration ranges.

   This is the one home of the interval arithmetic that underlies every
   bounds-safety proof in the tree: the bind-time guard-elimination check
   ([Vexec.Closure.affine_safe]), the abstract interpreter's loop-variable
   ranges ([Analysis.Absint]) and the concrete corner evaluations of the
   relational certifier ([Analysis.Rel]) all call into here, so the three
   proofs cannot drift apart.  Everything is exact native-int arithmetic —
   no outward rounding, no float embedding; callers that need the
   IEEE-embedded lattice convert at the boundary. *)

type t = { lo : int; hi : int }

let make lo hi =
  if lo > hi then invalid_arg "Ibox.make: empty interval";
  { lo; hi }

let point v = { lo = v; hi = v }
let add a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }

(* c * [lo, hi], exact: the endpoints swap when c is negative. *)
let scale c r =
  if c >= 0 then { lo = c * r.lo; hi = c * r.hi }
  else { lo = c * r.hi; hi = c * r.lo }

let within r ~lo ~hi = lo <= r.lo && r.hi <= hi

(* Values taken by a loop variable driven as
   [for v = start; v < bound; v += step]:

   - [step > 0]: the exact set is {start, start+step, ..., last} with
     [last = start + (bound-1-start)/step*step]; empty when
     [start >= bound].
   - [step <= 0]: the driver's guard fails immediately when
     [start >= bound], so the loop is provably empty; otherwise no finite
     iteration range exists (the variable descends without ever failing
     [v < bound]) and the answer is [`Unknown].

   The [`Empty] answer for non-positive steps is deliberate: a provably
   empty loop places no obligation on the body, so guard elimination may
   still proceed (historically this case was lumped into [`Unknown] and
   always paid its guards). *)
let loop_values ~start ~step ~bound =
  if start >= bound then `Empty
  else if step <= 0 then `Unknown
  else `Range { lo = start; hi = start + ((bound - 1 - start) / step * step) }

(* Exact hull of [const + sum coeff.(j) * env.(depth.(j))] over the box
   [env]: the form is affine, hence monotone per coordinate, so each term
   contributes its sign-split endpoint and the hull endpoints are attained
   at real corner points. *)
let affine_hull ~const ~(coeff : int array) ~(depth : int array)
    ~(env : t array) =
  let acc = ref (point const) in
  for j = 0 to Array.length coeff - 1 do
    acc := add !acc (scale coeff.(j) env.(depth.(j)))
  done;
  !acc

(* Linear-congruence domain: sets of integers of the form m*Z + r.

   [m = 0] is the constant r, [m = 1] is every integer (top), [m > 1] is the
   residue class r mod m.  This is Granger's arithmetical-congruence lattice,
   which is exactly what alignment questions need: an affine subscript's
   residue class modulo the vector factor decides whether every vector block
   starts on a lane-0-aligned element. *)

type t = { m : int; r : int }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Normalize so that 0 <= r < m when m > 0. *)
let make m r =
  let m = abs m in
  if m = 0 then { m = 0; r }
  else
    let r = ((r mod m) + m) mod m in
    { m; r }

let const c = { m = 0; r = c }
let top = { m = 1; r = 0 }
let is_top c = c.m = 1

(* Magnitudes past this degrade to top rather than risk int overflow in the
   products below; subscript arithmetic never gets near it. *)
let limit = 1 lsl 31

let guard c = if abs c.r > limit || c.m > limit then top else c

let add a b = guard (make (gcd a.m b.m) (a.r + b.r))

(* (m1 Z + r1)(m2 Z + r2) expands to m1 m2 Z^2 + m1 r2 Z + m2 r1 Z + r1 r2;
   every product lies in gcd(m1 m2, m1 r2, m2 r1) Z + r1 r2. *)
let mul a b =
  if (a.m = 0 && a.r = 0) || (b.m = 0 && b.r = 0) then const 0
  else if abs a.r > limit || abs b.r > limit || a.m > limit || b.m > limit then
    top
  else guard (make (gcd (a.m * b.m) (gcd (a.m * b.r) (b.m * a.r))) (a.r * b.r))

let mul_const c a = mul (const c) a

(* The residue class modulo [k] that every member of [c] falls in, when that
   is a single class: requires k | m (a constant always qualifies). *)
let residue_mod c ~k =
  if k <= 0 then None
  else if c.m = 0 then Some (((c.r mod k) + k) mod k)
  else if c.m mod k = 0 then Some (((c.r mod k) + k) mod k)
  else None

let to_string c =
  if is_top c then "Z"
  else if c.m = 0 then string_of_int c.r
  else Printf.sprintf "%dZ+%d" c.m c.r

(* The state arena for one lowered program: unboxed register files, loop
   bounds, reduction accumulators, and per-access index constants and
   coefficients.  [bind] refills it in place for a new environment — no
   array is ever reallocated, so closures compiled over the state (see
   [Closure]) stay valid across rebinds. *)

type state = {
  prog : Program.t;
  fregs : float array;
  iregs : int array;
  ivs : int array;  (* current loop-variable values, outermost first *)
  bounds : int array;
  accs : float array;  (* reduction accumulators *)
  acc_const : int array;
  acc_coeff : int array array;
  acc_depth : int array array;
  arr_f : float array array;
  arr_i : int array array;
  arr_len : int array;
}

val create : Program.t -> state

val bind : state -> Vinterp.Env.t -> unit
(** Point the state at an environment: loop bounds, array storage,
    literal/parameter slots and affine access constants are recomputed in
    place.  Raises [Invalid_argument] if the environment's storage kinds
    disagree with the program (it was built from a different kernel). *)

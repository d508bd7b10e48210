(* The state arena a lowered [Program.t] runs over: unboxed register
   files, loop bounds, reduction accumulators and per-access index
   constants, with no per-iteration allocation.

   A [state] is allocated once per program and *re-bound* to successive
   environments in place: [bind] refills loop bounds, array references,
   preloaded literal/parameter slots and the affine access constants and
   coefficients without reallocating any array.  That stability is what the
   closure tier relies on — compiled closures capture the state's arrays and
   read current values through them, so one compilation survives any number
   of (env, n) rebinds. *)

open Vir
module Env = Vinterp.Env

type state = {
  prog : Program.t;
  fregs : float array;
  iregs : int array;
  ivs : int array;  (* current loop-variable values, outermost first *)
  bounds : int array;  (* per loop, refreshed at bind *)
  accs : float array;  (* reduction accumulators *)
  (* Per access: bind-time constant, per-term element coefficients, and the
     per-term loop depths (fixed at prepare). *)
  acc_const : int array;
  acc_coeff : int array array;
  acc_depth : int array array;
  (* Array slots resolved to direct storage at bind; exactly one of
     arr_f/arr_i is live per slot, matching [Program.arr_float]. *)
  arr_f : float array array;
  arr_i : int array array;
  arr_len : int array;
}

let create (prog : Program.t) =
  let nacc = Array.length prog.accesses in
  let nslots = Array.length prog.arr_names in
  {
    prog;
    fregs = Array.make prog.nf 0.0;
    iregs = Array.make prog.ni 0;
    ivs = Array.make (Array.length prog.loops) 0;
    bounds = Array.make (Array.length prog.loops) 0;
    accs = Array.make (Array.length prog.reds) 0.0;
    acc_const = Array.make nacc 0;
    acc_coeff =
      Array.map
        (fun (a : Program.access) -> Array.make (Array.length a.acc_terms) 0)
        prog.accesses;
    acc_depth =
      Array.map
        (fun (a : Program.access) ->
          Array.map (fun (t : Program.aterm) -> t.t_depth) a.acc_terms)
        prog.accesses;
    arr_f = Array.make nslots [||];
    arr_i = Array.make nslots [||];
    arr_len = Array.make nslots 0;
  }

(* Point [st] at [env]: everything the compiled nest reads per iteration is
   precomputed here, in place. *)
let bind st (env : Env.t) =
  let prog = st.prog in
  let n = env.Env.n and n2 = env.Env.n2 in
  Array.iteri
    (fun d (l : Program.loopdesc) ->
      st.bounds.(d) <- Kernel.trip_bound ~n l.l_trip)
    prog.loops;
  Array.iteri
    (fun s name ->
      match (Env.store env name, prog.arr_float.(s)) with
      | Env.F_arr a, true ->
          st.arr_f.(s) <- a;
          st.arr_len.(s) <- Array.length a
      | Env.I_arr a, false ->
          st.arr_i.(s) <- a;
          st.arr_len.(s) <- Array.length a
      | Env.F_arr _, false | Env.I_arr _, true ->
          invalid_arg
            (Printf.sprintf "Vexec.Flat.bind: storage kind mismatch for %s" name))
    prog.arr_names;
  Array.iter
    (fun (s, src) ->
      st.fregs.(s) <-
        (match src with
        | Program.F_lit v -> v
        | Program.F_param p -> Env.param env p))
    prog.f_init;
  Array.iter
    (fun (s, src) ->
      st.iregs.(s) <-
        (match src with
        | Program.I_lit v -> v
        | Program.I_param p -> int_of_float (Env.param env p)))
    prog.i_init;
  let psum pt =
    List.fold_left (fun acc (p, c) -> acc + (c * int_of_float (Env.param env p))) 0 pt
  in
  Array.iteri
    (fun i (a : Program.access) ->
      if a.acc_ind < 0 then begin
        let rel0, rel1 = a.acc_rel in
        let off0, off1 = a.acc_off in
        let pt0, pt1 = a.acc_pt in
        (if a.acc_ndims >= 2 then
           let d0 = (if rel0 then n2 - 1 else 0) + off0 + psum pt0 in
           let d1 = (if rel1 then n2 - 1 else 0) + off1 + psum pt1 in
           st.acc_const.(i) <- (d0 * n2) + d1
         else st.acc_const.(i) <- (if rel0 then n - 1 else 0) + off0 + psum pt0);
        let coeff = st.acc_coeff.(i) in
        Array.iteri
          (fun j (t : Program.aterm) -> coeff.(j) <- (t.t_c0 * n2) + t.t_c1)
          a.acc_terms
      end)
    prog.accesses

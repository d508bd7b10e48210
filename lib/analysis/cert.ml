(* Static safety certificates.

   A certificate is the bridge between the relational domain ([Rel]) and
   the execution tier: per access it records safe / unsafe / unknown plus
   the proving constraint (or refuting witness), and projects to a
   [Vexec.License.t].  [Vexec.Closure.run_bound] still re-derives its
   intervals on every bind and checks the license against them: a
   guard-free license the bind-time proof refutes is a hard failure.

   Verdict composition:

   - [Rel.Safe]    -> [Vsafe]   (parametric proof, reason = the constraint);
   - [Bounds.classify] [Proven] -> [Vunsafe] (exact corner evaluation at
     witness sizes; the reason carries the concrete witness).  A [Vunsafe]
     refutation beats a [Rel.Safe] claim — they cannot coexist for a sound
     domain, and keeping the refutation makes a seeded-unsound domain
     visible to the tests rather than licensing a trap;
   - otherwise     -> [Vunknown] (the guarded path and the bind-time
     interval check remain in charge).

   Alignment at the certificate's vector factor rides along from the
   congruence domain for the lint layer; it never licenses anything. *)

open Vir
module Env = Vinterp.Env

type verdict = Vsafe | Vunsafe | Vunknown

let verdict_to_string = function
  | Vsafe -> "safe"
  | Vunsafe -> "unsafe"
  | Vunknown -> "unknown"

type align = Al_aligned | Al_misaligned of int | Al_unknown

let align_to_string = function
  | Al_aligned -> "aligned"
  | Al_misaligned r -> Printf.sprintf "misaligned(residue %d)" r
  | Al_unknown -> "unknown"

type access_cert = {
  ac_id : int;
  ac_pos : int;
  ac_array : string;
  ac_store : bool;
  ac_indirect : bool;
  ac_verdict : verdict;
  ac_reason : string;
  ac_align : align;
}

type t = {
  ct_kernel : string;
  ct_vf : int;
  ct_accesses : access_cert array;
  ct_guard_free : bool;
  ct_safe : int;
  ct_unsafe : int;
}

let default_vf = 4

let certify ?(vf = default_vf) (k : Kernel.t) =
  let reports = Rel.analyze k in
  (* Witness-backed refutations by body position; [Proven] only — a
     [Possible] violation depends on parameter values the contract allows,
     which the relational proof already quantifies over. *)
  let refuted : (int, Bounds.violation) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (c : Bounds.classified) ->
      match c.c_verdict with
      | Bounds.Proven ->
          if not (Hashtbl.mem refuted c.c_violation.v_pos) then
            Hashtbl.add refuted c.c_violation.v_pos c.c_violation
      | Bounds.Possible -> ())
    (Bounds.classify k);
  let body = Array.of_list k.body in
  let align_of pos =
    match body.(pos) with
    | Instr.Load { addr = Instr.Affine { dims; _ }; _ }
    | Instr.Store { addr = Instr.Affine { dims; _ }; _ } -> (
        let c = Absint.flat_congr ~vf ~n:Absint.default_n k dims in
        match Congr.residue_mod c ~k:vf with
        | Some 0 -> Al_aligned
        | Some r -> Al_misaligned r
        | None -> Al_unknown)
    | _ -> Al_unknown
  in
  let accesses =
    List.map
      (fun (r : Rel.access_report) ->
        let verdict, reason =
          match Hashtbl.find_opt refuted r.ar_pos with
          | Some v ->
              ( Vunsafe,
                Printf.sprintf "out of bounds at n=%d: %s[%d] vs extent %d"
                  v.Bounds.v_n v.Bounds.v_array v.Bounds.v_index
                  v.Bounds.v_extent )
          | None -> (
              match r.ar_verdict with
              | Rel.Safe why -> (Vsafe, why)
              | Rel.Unknown why -> (Vunknown, why))
        in
        {
          ac_id = r.ar_id;
          ac_pos = r.ar_pos;
          ac_array = r.ar_array;
          ac_store = r.ar_store;
          ac_indirect = r.ar_indirect;
          ac_verdict = verdict;
          ac_reason = reason;
          ac_align = align_of r.ar_pos;
        })
      reports
    |> Array.of_list
  in
  let safe =
    Array.fold_left
      (fun n a -> if a.ac_verdict = Vsafe then n + 1 else n)
      0 accesses
  in
  let unsafe =
    Array.fold_left
      (fun n a -> if a.ac_verdict = Vunsafe then n + 1 else n)
      0 accesses
  in
  (* Guard-free means the unchecked body may run: every affine access is
     proven (indirect accesses keep their guards in the unchecked body, so
     their verdicts do not gate the license — see [Vexec.License]). *)
  let guard_free =
    Array.for_all (fun a -> a.ac_indirect || a.ac_verdict = Vsafe) accesses
  in
  {
    ct_kernel = k.Kernel.name;
    ct_vf = vf;
    ct_accesses = accesses;
    ct_guard_free = guard_free;
    ct_safe = safe;
    ct_unsafe = unsafe;
  }

let safe_frac (c : t) =
  let total = Array.length c.ct_accesses in
  if total = 0 then 1.0 else float_of_int c.ct_safe /. float_of_int total

let license (c : t) =
  Vexec.License.make ~kernel:c.ct_kernel
    (Array.map
       (fun a ->
         match a.ac_verdict with
         | Vsafe -> Vexec.License.Safe
         | Vunsafe -> Vexec.License.Unsafe
         | Vunknown -> Vexec.License.Unknown)
       c.ct_accesses)

(* The bind-time baseline: how many accesses [Closure.affine_safe] alone
   licenses for the default environment at problem size 1024.  All-or-
   nothing per kernel, affine accesses only. *)
let bind_time_guard_free (k : Kernel.t) =
  let prog = Vexec.Program.lower k in
  let st = Vexec.Flat.create prog in
  let env = Env.create ~n:1024 k in
  Vexec.Flat.bind st env;
  if Vexec.Closure.affine_safe st then
    Array.fold_left
      (fun acc (a : Vexec.Program.access) ->
        if a.Vexec.Program.acc_ind < 0 then acc + 1 else acc)
      0 prog.Vexec.Program.accesses
  else 0

(* --- deterministic JSON -------------------------------------------------- *)

let to_json (c : t) =
  let access a =
    Vjson.(
      Obj
        [ ("id", Num (float_of_int a.ac_id)); ("pos", Num (float_of_int a.ac_pos));
          ("array", Str a.ac_array); ("store", Bool a.ac_store);
          ("indirect", Bool a.ac_indirect);
          ("verdict", Str (verdict_to_string a.ac_verdict));
          ("align", Str (align_to_string a.ac_align)); ("reason", Str a.ac_reason) ])
  in
  Vjson.(
    Obj
      [ ("kernel", Str c.ct_kernel); ("vf", Num (float_of_int c.ct_vf));
        ("guard_free", Bool c.ct_guard_free);
        ("safe", Num (float_of_int c.ct_safe));
        ("unsafe", Num (float_of_int c.ct_unsafe));
        ("accesses", List (List.map access (Array.to_list c.ct_accesses))) ])

(* --- batch + soundness gate ---------------------------------------------- *)

let certify_batch ?vf kernels =
  Vpar.Pool.parallel_map (fun k -> (k, certify ?vf k)) kernels

type gate = {
  g_kernels : int;
  g_accesses : int;
  g_safe : int;
  g_unsafe : int;
  g_guard_free : int;  (* kernels licensed to skip the per-bind check *)
  g_bind_time : int;  (* accesses the bind-time interval check licenses *)
  g_failures : string list;  (* empty = gate passes *)
}

let gate_sizes = [ 64; 257 ]

(* Execute one guard-free kernel under its license and cross-check against
   the reference interpreter.  Any divergence is an unsound certificate:
   either the bind-time check refuted the license (hard [Invalid_argument]
   from [Closure.run_bound]), or the unguarded body actually strayed. *)
let check_licensed (k : Kernel.t) (c : t) =
  List.filter_map
    (fun n ->
      try
        let env = Env.create ~n k in
        let prepared =
          Vexec.Backend.prepare ~license:(license c) Vexec.Backend.Closure k
        in
        let reds = Vexec.Backend.run_in prepared env in
        let got = Vexec.Backend.digest env reds in
        let oracle = Vinterp.Interp.run ~n k in
        let want =
          Vexec.Backend.digest oracle.Vinterp.Interp.env
            oracle.Vinterp.Interp.reductions
        in
        if String.equal got want then None
        else
          Some
            (Printf.sprintf "%s: licensed run diverges from interpreter at n=%d"
               k.Kernel.name n)
      with
      | Invalid_argument msg ->
          Some (Printf.sprintf "%s: n=%d: %s" k.Kernel.name n msg)
      | Env.Out_of_bounds (arr, idx) ->
          Some
            (Printf.sprintf "%s: licensed run trapped at n=%d: %s[%d]"
               k.Kernel.name n arr idx))
    gate_sizes

(* The certified fraction every gated registry must reach. *)
let frac_floor = 0.25

let gate (pairs : (Kernel.t * t) list) =
  let failures =
    Vpar.Pool.parallel_map
      (fun (k, c) -> if c.ct_guard_free then check_licensed k c else [])
      pairs
    |> List.concat
  in
  let accesses =
    List.fold_left (fun n (_, c) -> n + Array.length c.ct_accesses) 0 pairs
  in
  let safe = List.fold_left (fun n (_, c) -> n + c.ct_safe) 0 pairs in
  let unsafe = List.fold_left (fun n (_, c) -> n + c.ct_unsafe) 0 pairs in
  let guard_free =
    List.fold_left (fun n (_, c) -> if c.ct_guard_free then n + 1 else n) 0 pairs
  in
  let bind_time =
    List.fold_left (fun n (k, _) -> n + bind_time_guard_free k) 0 pairs
  in
  let failures =
    if accesses = 0 then failures
    else
      let frac = float_of_int safe /. float_of_int accesses in
      if frac < frac_floor then
        failures
        @ [
            Printf.sprintf
              "certified fraction %.3f below the %.2f floor (%d/%d accesses)"
              frac frac_floor safe accesses;
          ]
      else failures
  in
  let failures =
    if safe > bind_time then failures
    else
      failures
      @ [
          Printf.sprintf
            "static certificates license %d accesses, not strictly more than \
             the bind-time interval check's %d"
            safe bind_time;
        ]
  in
  {
    g_kernels = List.length pairs;
    g_accesses = accesses;
    g_safe = safe;
    g_unsafe = unsafe;
    g_guard_free = guard_free;
    g_bind_time = bind_time;
    g_failures = failures;
  }

let gate_pass (g : gate) = g.g_failures = []

(* Static safety certificates.

   A certificate records, per access, what the relational domain ([Rel])
   proves about its bounds: safe / unsafe / unknown plus the proving
   constraint (or refuting witness).  It is a static analysis result —
   printed by [vecmodel certify], read by the out-of-bounds lint and turned
   into F13's feature columns — and never reaches execution: the closure
   tier picks its body on every bind from its own interval proof
   ([Vexec.Closure.affine_safe]).  [gate] holds every guard-free
   certificate to that proof and to the reference interpreter.

   Verdict composition:

   - [Rel.Safe]    -> [Vsafe]   (parametric proof, reason = the constraint);
   - [Bounds.classify] [Proven] -> [Vunsafe] (exact corner evaluation at
     witness sizes; the reason carries the concrete witness).  A [Vunsafe]
     refutation beats a [Rel.Safe] claim — they cannot coexist for a sound
     domain, and keeping the refutation makes a seeded-unsound domain
     visible to the tests rather than certifying a trap;
   - otherwise     -> [Vunknown] (the guarded path and the bind-time
     interval check remain in charge).

   Alignment at the certificate's vector factor rides along from the
   congruence domain for the lint layer; it does not affect [ct_guard_free]. *)

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
  (* Guard-free means every affine access is proven: the closure tier's
     unchecked body is safe at every size.  Indirect accesses keep their
     guards in the unchecked body, so their verdicts do not count. *)
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

(* Lower [k], bind it to a fresh environment at problem size [n], and ask
   the closure tier's bind-time interval proof whether its unchecked body
   may run. *)
let bind_at ~n (k : Kernel.t) =
  let st = Vexec.Flat.create (Vexec.Program.lower k) in
  let env = Env.create ~n k in
  Vexec.Flat.bind st env;
  (st, env, Vexec.Closure.affine_safe st)

(* The bind-time baseline: how many accesses [Closure.affine_safe] alone
   proves for the default environment at problem size 1024.  All-or-
   nothing per kernel, affine accesses only. *)
let bind_time_guard_free (k : Kernel.t) =
  let st, _, safe = bind_at ~n:1024 k in
  if safe then
    Array.fold_left
      (fun acc (a : Vexec.Program.access) ->
        if a.Vexec.Program.acc_ind < 0 then acc + 1 else acc)
      0 st.Vexec.Flat.prog.Vexec.Program.accesses
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
  g_guard_free : int;  (* kernels whose every affine access is proven *)
  g_bind_time : int;  (* accesses the bind-time interval check proves *)
  g_failures : string list;  (* empty = gate passes *)
}

(* A guard-free certificate claims the unchecked body is safe at every
   size, so the bind-time proof must hold wherever it is asked: at the two
   gate sizes, where the closure run is also compared with the reference
   interpreter, and at the size every sample build binds
   ([Tsvc.Registry.default_n]), too large to interpret here. *)
let gate_sizes = [ 64; 257 ]
let build_n = 32000

let check_guard_free (k : Kernel.t) =
  let name = k.Kernel.name in
  let check n =
    let st, env, safe = bind_at ~n k in
    if not safe then
      Some
        (Printf.sprintf
           "%s: bind-time bounds check refutes the certificate at n=%d" name n)
    else if not (List.mem n gate_sizes) then None
    else
      try
        let reds = Vexec.Closure.run_bound st (Vexec.Closure.compile st) in
        let got = Vexec.Backend.digest env reds in
        let oracle = Vinterp.Interp.run ~n k in
        let want =
          Vexec.Backend.digest oracle.Vinterp.Interp.env
            oracle.Vinterp.Interp.reductions
        in
        if String.equal got want then None
        else
          Some
            (Printf.sprintf
               "%s: guard-free run diverges from interpreter at n=%d" name n)
      with Env.Out_of_bounds (arr, idx) ->
        Some
          (Printf.sprintf "%s: guard-free run trapped at n=%d: %s[%d]" name n
             arr idx)
  in
  List.filter_map check (gate_sizes @ [ build_n ])

(* The certified fraction every gated registry must reach. *)
let frac_floor = 0.25

let gate (pairs : (Kernel.t * t) list) =
  let failures =
    Vpar.Pool.parallel_map
      (fun (k, c) -> if c.ct_guard_free then check_guard_free k else [])
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
            "static certificates prove %d accesses, not strictly more than \
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

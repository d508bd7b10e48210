(* Translation validation: the vectorized (or unrolled) body must touch the
   same memory as the scalar kernel it came from.

   One vector-loop iteration covers VF scalar iterations ("lanes"); the
   validator expands both sides to per-lane symbolic addresses and compares
   the multisets.  Addresses are compared syntactically after normalizing
   subscripts (sorted terms, dropped zero coefficients) and shifting the
   innermost variable by the lane distance, which is exactly the
   transformation [Llv]/[Slp]/[Unroll] apply.  Indirect accesses cannot be
   resolved statically; they are compared by (array, direction) multiplicity
   under the index-array contract.

   The vectorizers may legitimately deviate from a 1:1 mapping in two ways:
     - a loop-invariant load is collapsed to a single scalar load
       (LLV keeps one [Sc] copy, SLP one [Invariant] copy);
     - SLP drops instructions that feed no store (demand-driven emission).
   The load comparison therefore brackets the vector count between the
   scalar kernel's *live* accesses and its total accesses; stores are never
   dead and never collapsed, so they must match exactly. *)

open Vir
module Vinstr = Vvect.Vinstr

type akind = Aload | Astore

type akey =
  | Aff of (string * (string * int) list * (string * int) list * int * bool) list
      (* per dim: (terms, pterms, off, rel_n), with the array name outside *)
  | Ind

type key = { arr : string; akind : akind; addr : akey }

let normalize_dim (d : Instr.dim) =
  let nz = List.filter (fun (_, c) -> c <> 0) in
  ( "",
    List.sort compare (nz d.Instr.terms),
    List.sort compare (nz d.Instr.pterms),
    d.Instr.off,
    d.Instr.rel_n )

let key_of_dims ~arr ~akind dims =
  { arr; akind; addr = Aff (List.map normalize_dim dims) }

let key_of_addr ~akind = function
  | Instr.Affine { arr; dims } -> key_of_dims ~arr ~akind dims
  | Instr.Indirect { arr; _ } -> { arr; akind; addr = Ind }

(* The address [lane] innermost steps later. *)
let shift_lane (inner : Kernel.loop) lane dims =
  List.map (Instr.shift_dim inner.Kernel.var (lane * inner.Kernel.step)) dims

let shift_addr (inner : Kernel.loop) lane = function
  | Instr.Affine { arr; dims } ->
      Instr.Affine { arr; dims = shift_lane inner lane dims }
  | Instr.Indirect _ as a -> a

let key_invariant (inner : Kernel.loop) = function
  | { addr = Ind; _ } -> false
  | { addr = Aff dims; _ } ->
      List.for_all
        (fun (_, terms, _, _, _) ->
          not (List.mem_assoc inner.Kernel.var terms))
        dims

(* Human rendering of a key for diagnostics. *)
let key_to_string k =
  let dir = match k.akind with Aload -> "load" | Astore -> "store" in
  match k.addr with
  | Ind -> Printf.sprintf "%s %s[<indirect>]" dir k.arr
  | Aff dims ->
      let dim_str (_, terms, pterms, off, rel_n) =
        let parts =
          (if rel_n then [ "(n-1)" ] else [])
          @ List.map
              (fun (v, c) ->
                if c = 1 then v else Printf.sprintf "%d*%s" c v)
              (terms @ pterms)
          @ (if off <> 0 then [ string_of_int off ] else [])
        in
        match parts with [] -> "0" | ps -> String.concat "+" ps
      in
      Printf.sprintf "%s %s[%s]" dir k.arr
        (String.concat "][" (List.map dim_str dims))

(* --- multiset accumulation ------------------------------------------------ *)

let bump tbl key delta =
  let c = match Hashtbl.find_opt tbl key with Some c -> c | None -> 0 in
  Hashtbl.replace tbl key (c + delta)

let get tbl key =
  match Hashtbl.find_opt tbl key with Some c -> c | None -> 0

(* Scalar-side multisets over [lanes] consecutive iterations: total counts
   and counts restricted to live instructions (stores are always live). *)
let scalar_tables (df : Dataflow.t) ~lanes =
  let inner = Kernel.innermost df.kernel in
  let total = Hashtbl.create 32 and live = Hashtbl.create 32 in
  Array.iteri
    (fun pos instr ->
      let record akind addr is_live =
        for lane = 0 to lanes - 1 do
          let key = key_of_addr ~akind (shift_addr inner lane addr) in
          bump total key 1;
          if is_live then bump live key 1
        done
      in
      match instr with
      | Instr.Load { addr; _ } -> record Aload addr df.live.(pos)
      | Instr.Store { addr; _ } -> record Astore addr true
      | _ -> ())
    df.body;
  (total, live)

(* Vector-side multiset: one vkernel body execution covers [vf] lanes. *)
let vector_table (vk : Vinstr.vkernel) =
  let inner = Kernel.innermost vk.scalar in
  let vf = vk.vf in
  let tbl = Hashtbl.create 32 in
  let wide akind arr dims =
    for lane = 0 to vf - 1 do
      bump tbl (key_of_dims ~arr ~akind (shift_lane inner lane dims)) 1
    done
  in
  List.iter
    (fun (vi : Vinstr.t) ->
      match vi with
      | Vinstr.Vload { arr; dims; _ } -> wide Aload arr dims
      | Vinstr.Vstore { arr; dims; _ } -> wide Astore arr dims
      | Vinstr.Vgather { arr; _ } ->
          bump tbl { arr; akind = Aload; addr = Ind } vf
      | Vinstr.Vscatter { arr; _ } ->
          bump tbl { arr; akind = Astore; addr = Ind } vf
      | Vinstr.Sc { copy; instr } -> (
          (* [Sc] runs with the innermost variable bound to lane [copy]. *)
          let record akind addr =
            bump tbl (key_of_addr ~akind (shift_addr inner copy addr)) 1
          in
          match instr with
          | Instr.Load { addr; _ } -> record Aload addr
          | Instr.Store { addr; _ } -> record Astore addr
          | _ -> ())
      | Vinstr.Vbin _ | Vinstr.Vuna _ | Vinstr.Vfma _ | Vinstr.Vcmp _
      | Vinstr.Vselect _ | Vinstr.Viota _ | Vinstr.Vcast _ | Vinstr.Vpack _
      | Vinstr.Vextract _ ->
          ())
    vk.vbody;
  tbl

let keys_of tbls =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun tbl -> Hashtbl.iter (fun k _ -> Hashtbl.replace seen k ()) tbl)
    tbls;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

(* --- vectorized-kernel checks --------------------------------------------- *)

let pass = "translation"

let memory_diags (vk : Vinstr.vkernel) : Diag.t list =
  let kernel = vk.scalar.Kernel.name in
  let inner = Kernel.innermost vk.scalar in
  let df = Dataflow.analyze vk.scalar in
  let s_total, s_live = scalar_tables df ~lanes:vk.vf in
  let v = vector_table vk in
  let out = ref [] in
  let err fmt = Printf.ksprintf (fun m ->
      out := Diag.error ~pass ~kernel "%s" m :: !out) fmt in
  List.iter
    (fun key ->
      let st = get s_total key and sl = get s_live key and vc = get v key in
      match key.akind with
      | Astore ->
          if vc <> st then
            err "%s: vector body performs %d per %d iterations, scalar %d"
              (key_to_string key) vc vk.vf st
      | Aload ->
          if key_invariant inner key then begin
            (* Invariant loads may collapse to one scalar copy. *)
            if sl > 0 && vc < 1 then
              err "%s: invariant load dropped by the vector body"
                (key_to_string key)
            else if vc > st then
              err "%s: vector body performs %d, scalar at most %d"
                (key_to_string key) vc st
          end
          else if vc < sl || vc > st then
            err "%s: vector body performs %d per %d iterations, scalar %d live \
                 (%d total)"
              (key_to_string key) vc vk.vf sl st)
    (keys_of [ s_total; v ]);
  List.rev !out

let reduction_diags (vk : Vinstr.vkernel) : Diag.t list =
  let kernel = vk.scalar.Kernel.name in
  let out = ref [] in
  let err fmt = Printf.ksprintf (fun m ->
      out := Diag.error ~pass ~kernel "%s" m :: !out) fmt in
  let sreds = vk.scalar.Kernel.reductions in
  if List.length sreds <> List.length vk.vreductions then
    err "scalar kernel has %d reductions, vector body %d" (List.length sreds)
      (List.length vk.vreductions);
  List.iter
    (fun (r : Kernel.reduction) ->
      match
        List.find_opt
          (fun (vr : Vinstr.vreduction) -> String.equal vr.vr_name r.red_name)
          vk.vreductions
      with
      | None -> err "reduction %s lost by vectorization" r.red_name
      | Some vr ->
          if vr.vr_op <> r.red_op then
            err "reduction %s: operator changed from %s to %s" r.red_name
              (Op.redop_to_string r.red_op)
              (Op.redop_to_string vr.vr_op);
          if not (Types.equal_scalar vr.vr_ty r.red_ty) then
            err "reduction %s: accumulator type changed from %s to %s"
              r.red_name (Types.to_string r.red_ty) (Types.to_string vr.vr_ty);
          if vr.vr_init <> r.red_init then
            err "reduction %s: initial value changed from %g to %g" r.red_name
              r.red_init vr.vr_init)
    sreds;
  List.rev !out

let vkernel_diags (vk : Vinstr.vkernel) : Diag.t list =
  memory_diags vk @ reduction_diags vk

(* --- unrolled-kernel checks ------------------------------------------------ *)

(* The unroller replicates everything: no collapse, no dead-code drop.  The
   unrolled body per iteration must match [uf] consecutive iterations of the
   original exactly, and the widened step must account for them. *)
let unrolled_diags ~(orig : Kernel.t) ~uf (u : Kernel.t) : Diag.t list =
  let kernel = orig.Kernel.name in
  let pass = "unroll-translation" in
  let out = ref [] in
  let err fmt = Printf.ksprintf (fun m ->
      out := Diag.error ~pass ~kernel "%s" m :: !out) fmt in
  let s_total, _ = scalar_tables (Dataflow.analyze orig) ~lanes:uf in
  let u_total, _ = scalar_tables (Dataflow.analyze u) ~lanes:1 in
  List.iter
    (fun key ->
      let sc = get s_total key and uc = get u_total key in
      if sc <> uc then
        err "%s: unrolled body performs %d per iteration, original %d over %d"
          (key_to_string key) uc sc uf)
    (keys_of [ s_total; u_total ]);
  let io = Kernel.innermost orig and iu = Kernel.innermost u in
  if iu.Kernel.step <> io.Kernel.step * uf then
    err "innermost step is %d, expected %d * %d" iu.Kernel.step io.Kernel.step
      uf;
  if List.length u.Kernel.reductions <> List.length orig.Kernel.reductions then
    err "unrolling changed the number of reductions from %d to %d"
      (List.length orig.Kernel.reductions)
      (List.length u.Kernel.reductions);
  List.iter
    (fun (r : Kernel.reduction) ->
      match
        List.find_opt
          (fun (ur : Kernel.reduction) -> String.equal ur.red_name r.red_name)
          u.Kernel.reductions
      with
      | None -> err "reduction %s lost by unrolling" r.red_name
      | Some ur ->
          if ur.red_op <> r.red_op || not (Types.equal_scalar ur.red_ty r.red_ty)
             || ur.red_init <> r.red_init
          then err "reduction %s altered by unrolling" r.red_name)
    orig.Kernel.reductions;
  List.rev !out

(* --- semantic equivalence against the reference interpreter ----------------- *)

(* The optimizer's passes claim *value* preservation, a stronger property
   than the address-multiset check above, and one we can decide by running
   both kernels under [Vinterp.Interp] in the deterministic default
   environment and comparing every array and reduction.  Every pass in
   [Opt] preserves each computed bit (only integer-exact rewrites, no float
   reassociation), so the comparison is exact — NaN compares equal to NaN
   so that an optimization moving an already-NaN value is not flagged. *)

let float_eq x y = x = y || (Float.is_nan x && Float.is_nan y)

let semantic_sizes = [ 17; 101 ]

let semantic_diags ~pass ~orig (k : Kernel.t) =
  let err fmt = Diag.error ~pass ~kernel:k.Kernel.name fmt in
  (* Runs go through the selected execution backend (closure-compiled by
     default).  Only [Opt.validate] calls this check, from
     `vecmodel opt --validate` and the tests; sample builds normalize
     through [Opt.normalize], which validates nothing.  All backends share
     reference semantics, enforced by the exec equivalence suite. *)
  let backend = Vexec.Backend.default () in
  let run n kernel =
    match Vexec.Backend.run ~n backend kernel with
    | r -> Ok (Vinterp.Env.snapshot r.Vinterp.Interp.env, r.Vinterp.Interp.reductions)
    | exception e -> Error (Printexc.to_string e)
  in
  let check_size n =
    match (run n orig, run n k) with
    | Error _, _ ->
        (* The original already traps under the default bindings; there is
           no reference behaviour to preserve. *)
        []
    | Ok _, Error e ->
        [ err "transformed kernel traps at n=%d where the original ran: %s" n e ]
    | Ok (s1, r1), Ok (s2, r2) ->
        let arr_diffs =
          if List.length s1 <> List.length s2
             || not
                  (List.for_all2
                     (fun (a, _) (b, _) -> String.equal a b)
                     s1 s2)
          then [ err "array set changed at n=%d" n ]
          else
            List.concat_map
              (fun ((name, x), (_, y)) ->
                if Array.length x <> Array.length y then
                  [ err "array %s changed length at n=%d" name n ]
                else
                  match
                    Array.to_seq (Array.mapi (fun i v -> (i, v)) x)
                    |> Seq.filter (fun (i, v) -> not (float_eq v y.(i)))
                    |> Seq.uncons
                  with
                  | Some ((i, v), _) ->
                      [ err "array %s differs at [%d]: %.17g vs %.17g (n=%d)"
                          name i v y.(i) n ]
                  | None -> [])
              (List.combine s1 s2)
        in
        let red_diffs =
          if List.length r1 <> List.length r2 then
            [ err "reduction set changed at n=%d" n ]
          else
            List.concat_map
              (fun ((a, x), (b, y)) ->
                if not (String.equal a b) then
                  [ err "reduction %s renamed to %s at n=%d" a b n ]
                else if not (float_eq x y) then
                  [ err "reduction %s differs: %.17g vs %.17g (n=%d)" a x y n ]
                else [])
              (List.combine r1 r2)
        in
        arr_diffs @ red_diffs
  in
  List.concat_map check_size semantic_sizes

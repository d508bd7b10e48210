(* Effect & ownership analysis.

   [analyze] computes a per-kernel effect summary: the may-read/may-write
   effect license the runtime consumes ([Vexec.Effects], the projection
   that decides which buffers may alias the process-wide frozen masters),
   refined with affine region info — per-(array, direction) flat-index
   intervals from the abstract interpreter — and with the relational
   domain's parametric in-bounds verdicts.

   [crosscheck] is the empirical soundness gate, mirroring
   [Depsreport.crosscheck]: for every (transform, VF) configuration over
   LLV, SLP and unroll, the transformed kernel's effects must stay inside
   the source summary.  Statically, a walker over the vector IR (or the
   unrolled scalar body) must be subsumed by the source license; for
   oracle-legal configurations the transformed kernel is additionally
   *run* with the interpreter's access trace installed, and every
   observed access must hit a licensed (array, direction) inside its
   static region.  Any escape is a soundness failure: it means the
   ownership decisions derived from the source summary would have been
   wrong for the code the backend actually executes. *)

open Vir
module E = Vexec.Effects
module L = Vdeps.Legality

(* --- summaries ------------------------------------------------------------ *)

type region = {
  r_array : string;
  r_write : bool;
  r_range : Interval.t;  (* flat-index interval at the analysis size *)
}

type summary = {
  e_kernel : Kernel.t;
  e_n : int;  (* problem size the regions were computed at *)
  e_license : E.t;
  e_regions : region list;  (* sorted by (array, write) *)
  e_rel_safe : int;  (* accesses proved in-bounds parametrically (Rel) *)
  e_rel_total : int;
}

(* Join the abstract interpreter's per-access flat-index ranges into one
   region per (array, direction). *)
let regions ~n k =
  let s = Absint.analyze ~n k in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (a : Absint.access_info) ->
      let key = (a.ai_arr, a.ai_store) in
      let r =
        match Hashtbl.find_opt tbl key with
        | Some r -> Interval.join r a.ai_range
        | None -> a.ai_range
      in
      Hashtbl.replace tbl key r)
    s.Absint.s_accesses;
  Hashtbl.fold
    (fun (arr, write) range acc ->
      { r_array = arr; r_write = write; r_range = range } :: acc)
    tbl []
  |> List.sort (fun a b -> compare (a.r_array, a.r_write) (b.r_array, b.r_write))

let analyze ?(n = Absint.default_n) (k : Kernel.t) =
  let rel = Rel.analyze k in
  let safe =
    List.length
      (List.filter
         (fun (r : Rel.access_report) ->
           match r.ar_verdict with Rel.Safe _ -> true | Rel.Unknown _ -> false)
         rel)
  in
  {
    e_kernel = k;
    e_n = n;
    e_license = E.of_kernel k;
    e_regions = regions ~n k;
    e_rel_safe = safe;
    e_rel_total = List.length rel;
  }

(* Kernels are independent; parallel_map keeps registry order. *)
let analyze_kernels ?n ks = Vpar.Pool.parallel_map (analyze ?n) ks

let ownership s name = E.ownership s.e_license name

let region s ~array ~write =
  List.find_opt (fun r -> String.equal r.r_array array && r.r_write = write)
    s.e_regions

(* --- transformed effects --------------------------------------------------- *)

(* Effect summary of a vectorized kernel's wide body (the scalar epilogue
   executes the source body, whose effects are the source summary by
   construction).  Entries cover the scalar kernel's arrays, like
   [Effects.of_kernel], so [Effects.subsumes] compares like with like. *)
let vkernel_effects (vk : Vvect.Vinstr.vkernel) : E.t =
  let flags = Hashtbl.create 8 in
  let touch ~write ~indirect name =
    let r, w, ri, wi =
      match Hashtbl.find_opt flags name with
      | Some f -> f
      | None ->
          let f = (ref false, ref false, ref false, ref false) in
          Hashtbl.replace flags name f;
          f
    in
    if write then begin
      w := true;
      if indirect then wi := true
    end
    else begin
      r := true;
      if indirect then ri := true
    end
  in
  let scalar_instr (i : Instr.t) =
    match i with
    | Load { addr; _ } ->
        touch ~write:false
          ~indirect:(match addr with Indirect _ -> true | Affine _ -> false)
          (Instr.addr_array addr)
    | Store { addr; _ } ->
        touch ~write:true
          ~indirect:(match addr with Indirect _ -> true | Affine _ -> false)
          (Instr.addr_array addr)
    | Bin _ | Una _ | Fma _ | Cmp _ | Select _ | Cast _ -> ()
  in
  let rec walk = function
    | [] -> ()
    | (v : Vvect.Vinstr.t) :: rest ->
        (match v with
        | Vload { arr; _ } -> touch ~write:false ~indirect:false arr
        | Vstore { arr; _ } -> touch ~write:true ~indirect:false arr
        | Vgather { arr; _ } -> touch ~write:false ~indirect:true arr
        | Vscatter { arr; _ } -> touch ~write:true ~indirect:true arr
        | Sc { instr; _ } -> scalar_instr instr
        | Vbin _ | Vuna _ | Vfma _ | Vcmp _ | Vselect _ | Viota _ | Vcast _
        | Vpack _ | Vextract _ ->
            ());
        walk rest
  in
  walk vk.Vvect.Vinstr.vbody;
  let entries =
    List.map
      (fun (d : Kernel.array_decl) ->
        match Hashtbl.find_opt flags d.arr_name with
        | Some (r, w, ri, wi) ->
            {
              E.e_array = d.arr_name;
              e_read = !r;
              e_write = !w;
              e_read_indirect = !ri;
              e_write_indirect = !wi;
            }
        | None ->
            {
              E.e_array = d.arr_name;
              e_read = false;
              e_write = false;
              e_read_indirect = false;
              e_write_indirect = false;
            })
      vk.Vvect.Vinstr.scalar.Kernel.arrays
    |> List.sort (fun (a : E.entry) b -> String.compare a.E.e_array b.E.e_array)
  in
  { E.ef_kernel = vk.Vvect.Vinstr.scalar.Kernel.name; ef_entries = entries }

(* --- observed traces ------------------------------------------------------- *)

(* Observed access footprint of one run: (array, is_write) -> index range. *)
type observed = (string * bool, int ref * int ref) Hashtbl.t

let observe run : (observed, string) result =
  let tbl : observed = Hashtbl.create 16 in
  let on_access arr idx write =
    let key = (arr, write) in
    match Hashtbl.find_opt tbl key with
    | Some (lo, hi) ->
        if idx < !lo then lo := idx;
        if idx > !hi then hi := idx
    | None -> Hashtbl.replace tbl key (ref idx, ref idx)
  in
  match run on_access with
  | () -> Ok tbl
  | exception e -> Error (Printexc.to_string e)

let observe_vkernel ~seed ~n (vk : Vvect.Vinstr.vkernel) =
  observe (fun on_access ->
      let env = Vinterp.Env.create ~seed ~n vk.Vvect.Vinstr.scalar in
      Vinterp.Env.set_trace env on_access;
      let r = Vvect.Vexec.run_in env vk in
      Vinterp.Env.clear_trace env;
      ignore r)

let observe_kernel ~seed ~n (k : Kernel.t) =
  observe (fun on_access ->
      let env = Vinterp.Env.create ~seed ~n k in
      Vinterp.Env.set_trace env on_access;
      let r = Vinterp.Interp.run_in env k in
      Vinterp.Env.clear_trace env;
      ignore r)

(* Every observed access must be licensed by the summary and fall inside
   its static region at this size.  Unbounded (widened) regions place no
   index obligation — the license flags still apply.  Violations are
   returned sorted, so reports are deterministic. *)
let contained ~license ~regions:regs (tbl : observed) =
  let viol = ref [] in
  Hashtbl.iter
    (fun (arr, write) (lo, hi) ->
      let dir = if write then "write" else "read" in
      let licensed =
        if write then E.may_write license arr else E.may_read license arr
      in
      if not licensed then
        viol :=
          Printf.sprintf "unlicensed %s of %s ([%d,%d])" dir arr !lo !hi
          :: !viol
      else
        match
          List.find_opt
            (fun r -> String.equal r.r_array arr && r.r_write = write)
            regs
        with
        | Some r when Interval.is_bounded r.r_range ->
            if
              not
                (Interval.contains_int r.r_range !lo
                && Interval.contains_int r.r_range !hi)
            then
              viol :=
                Printf.sprintf
                  "%s of %s at [%d,%d] escapes static region %s" dir arr !lo
                  !hi
                  (Interval.to_string r.r_range)
                :: !viol
        | _ -> ())
    tbl;
  List.sort String.compare !viol

(* --- the cross-check ------------------------------------------------------- *)

type verdict =
  | Stable  (* static containment holds; trace containment too, if legal *)
  | Escape of string  (* transformed effects escape the source summary *)
  | Inapplicable of string  (* transform failed for a structural reason *)

type config = {
  c_kernel : string;
  c_transform : Driver.transform;
  c_vf : int;
  c_legal : bool;  (* whether the legality oracle admits the config *)
  c_verdict : verdict;
}

let trace_sizes = Equiv.semantic_sizes
let trace_seed = 42

(* Whether the source kernel has reference behaviour at size [n]: its run
   (seed [trace_seed]) completes.  Each size runs once per kernel, however
   many of its configurations ask. *)
let source_runs (k : Kernel.t) =
  let memo = Vpar.Memo.create () in
  fun n ->
    Vpar.Memo.find_or_compute memo n (fun () ->
        match Vinterp.Interp.run ~seed:trace_seed ~n k with
        | exception _ -> false
        | _ -> true)

(* Trace containment at every size in [sizes].  [run_t ~n] executes the
   transformed kernel under an installed access trace.  A size where the
   *source* kernel has no reference behaviour is skipped, as in
   [Depsreport.validates]; a transformed run that traps where the source
   does not is itself an escape. *)
let trace_check ~sizes ~license ~source_runs k run_t =
  let rec go = function
    | [] -> Stable
    | n :: rest ->
        if not (source_runs n) then go rest
        else (
          match run_t ~n with
          | Error e -> Escape (Printf.sprintf "n=%d: run trapped: %s" n e)
          | Ok tbl -> (
              match contained ~license ~regions:(regions ~n k) tbl with
              | [] -> go rest
              | v :: _ -> Escape (Printf.sprintf "n=%d: %s" n v)))
  in
  go sizes

let check_config (k : Kernel.t) ~source_runs (tr : Driver.transform) ~vf :
    bool * verdict =
  let license = E.of_kernel k in
  let static_then_trace ?(sizes = trace_sizes) ~legal sub run_t =
    if not (E.subsumes ~summary:license sub) then
      ( legal,
        Escape
          (Printf.sprintf "static: transformed effects [%s] escape [%s]"
             (E.to_string sub) (E.to_string license)) )
    else if not legal then (legal, Stable)
      (* forced-illegal configurations carry the static obligation only:
         their runtime semantics are not the source's, so an observed
         trace would compare apples to oranges *)
    else (legal, trace_check ~sizes ~license ~source_runs k run_t)
  in
  match tr with
  | Driver.Tllv -> (
      let legal = L.llv_ok k ~vf in
      match Vvect.Llv.vectorize ~vf ~force:true k with
      | Error e -> (legal, Inapplicable (Vvect.Llv.error_to_string e))
      | Ok vk ->
          static_then_trace ~legal (vkernel_effects vk) (fun ~n ->
              observe_vkernel ~seed:trace_seed ~n vk))
  | Driver.Tslp -> (
      let legal = L.slp_ok k ~vf in
      match Vvect.Slp.vectorize ~vf ~force:true k with
      | Error e -> (legal, Inapplicable (Vvect.Slp.error_to_string e))
      | Ok vk ->
          static_then_trace ~legal (vkernel_effects vk) (fun ~n ->
              observe_vkernel ~seed:trace_seed ~n vk))
  | Driver.Tunroll ->
      let u = Vvect.Unroll.by vf k in
      (* The unroller suffixes the kernel name; the effect obligation is
         against the *source* summary, so analyze the unrolled body under
         the source name. *)
      let sub = E.of_kernel { u with Kernel.name = k.Kernel.name } in
      (* Unrolling is only an exact transformation at sizes where the
         innermost trip divides the factor — elsewhere the unrolled body
         overshoots the source iteration space by construction, which is
         an artefact of the size, not an effect escape.  Trace at the
         nearest exact size at or above each requested one. *)
      let exact_sizes =
        List.sort_uniq compare
          (List.filter_map
             (fun n ->
               let rec find m =
                 if m > n + (8 * vf) then None
                 else if Vvect.Unroll.exact_for ~n:m k vf then Some m
                 else find (m + 1)
               in
               find n)
             trace_sizes)
      in
      static_then_trace ~sizes:exact_sizes ~legal:true sub (fun ~n ->
          observe_kernel ~seed:trace_seed ~n u)

let default_vfs = Driver.default_vfs

let crosscheck_kernel ?(vfs = default_vfs) (k : Kernel.t) : config list =
  let source_runs = source_runs k in
  List.concat_map
    (fun tr ->
      List.map
        (fun vf ->
          let legal, verdict = check_config k ~source_runs tr ~vf in
          {
            c_kernel = k.Kernel.name;
            c_transform = tr;
            c_vf = vf;
            c_legal = legal;
            c_verdict = verdict;
          })
        vfs)
    Driver.all_transforms

let crosscheck ?vfs ks =
  List.concat (Vpar.Pool.parallel_map (crosscheck_kernel ?vfs) ks)

type stats = { st_stable : int; st_escape : int; st_inapplicable : int }

let stats configs =
  List.fold_left
    (fun st c ->
      match c.c_verdict with
      | Stable -> { st with st_stable = st.st_stable + 1 }
      | Escape _ -> { st with st_escape = st.st_escape + 1 }
      | Inapplicable _ ->
          { st with st_inapplicable = st.st_inapplicable + 1 })
    { st_stable = 0; st_escape = 0; st_inapplicable = 0 }
    configs

(* Of the applicable configurations, the fraction whose transformed
   effects stay inside the source summary.  Soundness demands 1.0. *)
let precision st =
  if st.st_stable + st.st_escape = 0 then 1.0
  else
    float_of_int st.st_stable /. float_of_int (st.st_stable + st.st_escape)

let sound configs =
  List.for_all
    (fun c -> match c.c_verdict with Escape _ -> false | _ -> true)
    configs

let failures configs =
  List.filter
    (fun c -> match c.c_verdict with Escape _ -> true | _ -> false)
    configs

let config_to_string c =
  let v =
    match c.c_verdict with
    | Stable -> "stable"
    | Escape why -> "EFFECT ESCAPE: " ^ why
    | Inapplicable why -> "inapplicable: " ^ why
  in
  Printf.sprintf "%s %s vf=%d%s: %s" c.c_kernel
    (Driver.transform_to_string c.c_transform)
    c.c_vf
    (if c.c_legal then "" else " (illegal, forced)")
    v

(* --- rendering ------------------------------------------------------------- *)

let interval_json (iv : Interval.t) =
  if not (Interval.is_bounded iv) then Vjson.Null
  else Vjson.List [ Vjson.Num iv.Interval.lo; Vjson.Num iv.Interval.hi ]

let entry_json s (e : E.entry) =
  let reg write =
    match region s ~array:e.E.e_array ~write with
    | Some r -> interval_json r.r_range
    | None -> Vjson.Null
  in
  let owner =
    match ownership s e.E.e_array with
    | Vinterp.Env.Frozen -> "frozen"
    | Vinterp.Env.Owned -> "owned"
  in
  Vjson.(
    Obj
      [ ("array", Str e.E.e_array); ("read", Bool e.E.e_read);
        ("write", Bool e.E.e_write); ("read_indirect", Bool e.E.e_read_indirect);
        ("write_indirect", Bool e.E.e_write_indirect); ("ownership", Str owner);
        ("read_region", reg false); ("write_region", reg true) ])

(* Entries and regions are sorted at construction, so the JSON is
   byte-stable whatever the worker count. *)
let summary_to_json s =
  Vjson.(
    Obj
      [ ("kernel", Str s.e_kernel.Kernel.name); ("n", Num (float_of_int s.e_n));
        ("rel_safe", Num (float_of_int s.e_rel_safe));
        ("rel_total", Num (float_of_int s.e_rel_total));
        ("effects", List (List.map (entry_json s) s.e_license.E.ef_entries)) ])

let print_summary oc s =
  Printf.fprintf oc "%s: %d array(s), rel %d/%d safe (n=%d)\n"
    s.e_kernel.Kernel.name
    (List.length s.e_license.E.ef_entries)
    s.e_rel_safe s.e_rel_total s.e_n;
  List.iter
    (fun (e : E.entry) ->
      let flags = E.entry_to_string e in
      let own =
        match ownership s e.E.e_array with
        | Vinterp.Env.Frozen -> "frozen"
        | Vinterp.Env.Owned -> "owned"
      in
      let reg write label =
        match region s ~array:e.E.e_array ~write with
        | Some r when Interval.is_bounded r.r_range ->
            Printf.sprintf " %s %s" label (Interval.to_string r.r_range)
        | _ -> ""
      in
      Printf.fprintf oc "  %-14s %-6s%s%s\n" flags own (reg false "r")
        (reg true "w"))
    s.e_license.E.ef_entries

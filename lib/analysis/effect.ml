(* Effect & ownership analysis.

   [analyze] computes a per-kernel effect summary: the may-read/may-write
   effect license the runtime consumes ([Vexec.Effects], the projection
   that decides which buffers may alias the process-wide frozen masters),
   refined with affine region info — per-(array, direction) flat-index
   intervals from the abstract interpreter — and with the relational
   domain's parametric in-bounds verdicts.

   [vkernel_effects] walks a vectorized kernel's wide body: [Crosscheck]'s
   [Effects] obligation holds every transformed kernel to the source
   summary. *)

open Vir
module E = Vexec.Effects

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

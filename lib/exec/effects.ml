(* Effect licenses: the execution-side half of the effect/ownership
   handshake with the effect analysis (Analysis.Effect).

   An effect license is plain data — one entry per kernel array recording
   whether the kernel may read or write it, and whether any of those
   accesses is indirect (through a computed index).  The runtime derives
   its master-buffer aliasing from this summary: an array the license
   proves unwritten is [Frozen] (it aliases the process-wide master), a
   possibly-written array is [Owned] (a private copy).  One unsound
   [Frozen] decision corrupts every subsequent environment in the
   process, which is why the summary is produced by a single recursive
   walker ([of_kernel]) instead of ad-hoc scans at each call site, and
   why the analysis library cross-checks it against observed access
   traces (see [Analysis.Effect]).

   This module lives in [lib/exec] so the execution tiers depend only on
   the data the analysis emits, never on the prover. *)

type entry = {
  e_array : string;
  e_read : bool;
  e_write : bool;
  e_read_indirect : bool;  (* some read is a gather *)
  e_write_indirect : bool;  (* some write is a scatter *)
}

type t = {
  ef_kernel : string;
  ef_entries : entry list;  (* sorted by array name; one per kernel array *)
}

let find t name =
  List.find_opt (fun e -> String.equal e.e_array name) t.ef_entries

let may_read t name =
  match find t name with Some e -> e.e_read | None -> false

let may_write t name =
  match find t name with Some e -> e.e_write | None -> false

(* The aliasing predicate handed to [Vinterp.Env.create]: an array is
   readonly exactly when the summary proves no write can reach it. *)
let readonly t name = not (may_write t name)

(* Ownership discipline projected from the effect summary: unwritten
   arrays may alias the frozen master, written arrays need owned copies. *)
let ownership t name : Vinterp.Env.ownership =
  if may_write t name then Owned else Frozen

(* Sound syntactic baseline: every array named by a load is may-read,
   every array named by a store is may-write, with indirection flags from
   the address forms.  Entries cover exactly the kernel's declared arrays
   (accesses to undeclared arrays cannot execute — [Env.store] rejects
   them).  This is cheap enough for the measurement hot path; the
   analysis library refines it with affine region info but must stay
   within these bounds. *)
let of_kernel (k : Vir.Kernel.t) =
  let flags = Hashtbl.create 8 in
  let get name =
    match Hashtbl.find_opt flags name with
    | Some f -> f
    | None ->
        let f = (ref false, ref false, ref false, ref false) in
        Hashtbl.replace flags name f;
        f
  in
  let touch ~write ~indirect name =
    let r, w, ri, wi = get name in
    if write then begin
      w := true;
      if indirect then wi := true
    end
    else begin
      r := true;
      if indirect then ri := true
    end
  in
  let rec walk = function
    | [] -> ()
    | instr :: rest ->
        (match (instr : Vir.Instr.t) with
        | Load { addr; _ } ->
            touch ~write:false
              ~indirect:(match addr with Indirect _ -> true | Affine _ -> false)
              (Vir.Instr.addr_array addr)
        | Store { addr; _ } ->
            touch ~write:true
              ~indirect:(match addr with Indirect _ -> true | Affine _ -> false)
              (Vir.Instr.addr_array addr)
        | Bin _ | Una _ | Fma _ | Cmp _ | Select _ | Cast _ -> ());
        walk rest
  in
  walk k.body;
  let entries =
    List.map
      (fun (d : Vir.Kernel.array_decl) ->
        match Hashtbl.find_opt flags d.arr_name with
        | Some (r, w, ri, wi) ->
            {
              e_array = d.arr_name;
              e_read = !r;
              e_write = !w;
              e_read_indirect = !ri;
              e_write_indirect = !wi;
            }
        | None ->
            {
              e_array = d.arr_name;
              e_read = false;
              e_write = false;
              e_read_indirect = false;
              e_write_indirect = false;
            })
      k.arrays
    |> List.sort (fun a b -> String.compare a.e_array b.e_array)
  in
  { ef_kernel = k.name; ef_entries = entries }

(* Effect containment: [subsumes ~summary sub] holds when every effect
   [sub] claims is already licensed by [summary] — same kernel, and no
   entry reads, writes, or indirects an array the summary does not.
   This is the stability obligation each transformed kernel must meet
   against its source summary. *)
let subsumes ~summary sub =
  String.equal summary.ef_kernel sub.ef_kernel
  && List.for_all
       (fun e ->
         match find summary e.e_array with
         | None -> not (e.e_read || e.e_write)
         | Some s ->
             ((not e.e_read) || s.e_read)
             && ((not e.e_write) || s.e_write)
             && ((not e.e_read_indirect) || s.e_read_indirect)
             && ((not e.e_write_indirect) || s.e_write_indirect))
       sub.ef_entries

let entry_to_string e =
  let flag b ind tag =
    if not b then "" else if ind then tag ^ "*" else tag
  in
  Printf.sprintf "%s:%s%s" e.e_array
    (flag e.e_read e.e_read_indirect "r")
    (flag e.e_write e.e_write_indirect "w")

(* Compact one-line rendering: "kernel a:r b:rw* idx:r" with [*] marking
   indirect access; read/write flags omitted when absent. *)
let to_string t =
  String.concat " "
    (t.ef_kernel :: List.map entry_to_string t.ef_entries)

(* Per-kernel legality summary: the full legal (transform x VF) space the
   autotuner enumerates, derived from the innermost dependence oracle
   ([Dependence], whose verdicts the golden tables lock), the nest-wide
   graph ([Depgraph], direction vectors for interchange), and the idiom
   tags ([Idiom], reduction admission).

   [lib/vect] consumes these predicates instead of re-deriving ad-hoc
   checks: LLV asks [llv_ok] at its full vf*ic span, SLP asks [slp_ok]
   (dependence legality plus reduction admissibility), the unroller is
   always legal, and interchange asks [interchange_verdict] for the
   direction-vector argument. *)

open Vir

(* --- per-transform predicates ------------------------------------------ *)

(* Loop-level widening: statements stay in order, each runs all VF lanes
   before the next; legal exactly when every constraining carried
   dependence has distance >= vf. *)
let llv_ok (k : Kernel.t) ~vf = Dependence.legal_for_vf k vf

(* SLP packing after virtual unrolling shares LLV's legality criterion;
   reduction loops are admitted when every accumulator is an
   order-insensitive idiom (always true in this IR — the tag makes the
   admission explicit where SLP used to refuse). *)
let slp_ok (k : Kernel.t) ~vf =
  Dependence.legal_for_vf k vf && Idiom.reductions_vectorizable k

(* Unrolling preserves the complete statement execution order, so it is
   legal at every factor. *)
let unroll_ok (_ : Kernel.t) ~uf = uf >= 2

type ix_verdict =
  | Ix_legal
  | Ix_illegal of string  (* the array with a (<,>) direction vector *)
  | Ix_inapplicable of string  (* not a 2-level nest, or unanalyzable *)

let ix_verdict_to_string = function
  | Ix_legal -> "legal"
  | Ix_illegal arr -> Printf.sprintf "illegal ((<,>) direction on %s)" arr
  | Ix_inapplicable s -> Printf.sprintf "inapplicable (%s)" s

(* Interchange reverses the direction vector of every dependence: legal
   exactly when no edge has a (<,>) vector (which would become the
   impossible (>,<)), and decidable only when every edge's directions are
   known. *)
let interchange_verdict (k : Kernel.t) =
  if List.length k.loops <> 2 then Ix_inapplicable "not a two-level nest"
  else
    let g = Depgraph.build k in
    let unknown =
      List.find_opt
        (fun (e : Depgraph.edge) -> e.e_carried = Depgraph.Carried_unknown)
        g.g_edges
    in
    match unknown with
    | Some e ->
        Ix_inapplicable
          (Printf.sprintf "dependence on %s has unknown direction" e.e_array)
    | None -> (
        let bad =
          List.find_opt
            (fun (e : Depgraph.edge) ->
              e.e_dirs.(0) = Subscript.Lt && e.e_dirs.(1) = Subscript.Gt)
            g.g_edges
        in
        match bad with Some e -> Ix_illegal e.e_array | None -> Ix_legal)

(* --- the summary -------------------------------------------------------- *)

type t = {
  l_kernel : string;
  l_vf_limit : Dependence.vf_limit;
  l_llv : (int * bool) list;
  l_slp : (int * bool) list;
  l_unroll : (int * bool) list;
  l_interchange : ix_verdict;
  l_idioms : Idiom.t list;
  l_assumed : bool;  (* legality rests on a runtime assumption *)
}

let default_vfs = [ 2; 4; 8; 16 ]

let summarize (k : Kernel.t) =
  {
    l_kernel = k.name;
    l_vf_limit = Dependence.vf_limit k;
    l_llv = List.map (fun vf -> (vf, llv_ok k ~vf)) default_vfs;
    l_slp = List.map (fun vf -> (vf, slp_ok k ~vf)) default_vfs;
    l_unroll = List.map (fun uf -> (uf, unroll_ok k ~uf)) default_vfs;
    l_interchange = interchange_verdict k;
    l_idioms = Idiom.recognize k;
    l_assumed = Dependence.needs_runtime_assumption k;
  }

let legal_vfs col = List.filter_map (fun (vf, ok) -> if ok then Some vf else None) col

let pp fmt s =
  let show col =
    match legal_vfs col with
    | [] -> "none"
    | vfs -> String.concat "," (List.map string_of_int vfs)
  in
  Format.fprintf fmt
    "@[<v>kernel %s@,  vf limit: %s@,  llv: %s@,  slp: %s@,  unroll: %s@,  interchange: %s@,  idioms: %s@,  runtime assumption: %b@]"
    s.l_kernel
    (match s.l_vf_limit with
    | Dependence.Unlimited -> "unlimited"
    | Dependence.Max_vf m -> string_of_int m)
    (show s.l_llv) (show s.l_slp) (show s.l_unroll)
    (ix_verdict_to_string s.l_interchange)
    (match s.l_idioms with
    | [] -> "none"
    | l -> String.concat ", " (List.map Idiom.to_string l))
    s.l_assumed

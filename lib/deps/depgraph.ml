(* Nest-wide dependence graph.

   Nodes are the memory references of the body; edges are dependences
   normalized so the source instance executes no later than the sink
   (direction vectors read outermost depth first and their leading
   non-'=' entry is always '<').  Each edge records the per-depth
   direction, the exact per-depth iteration distance where the subscript
   tests pin one, the depth (if any) that carries the dependence, and
   whether it rests on the index-array conflict-freedom assumption.

   The innermost-loop legality oracle stays [Dependence] — byte-for-byte
   the verdicts the golden tables lock — while this graph supplies the
   nest-level structure: interchange direction vectors, per-depth carried
   counts for the F12 dependence features, and the [vecmodel deps]
   report. *)

open Vir

type carried = Independent | Carried of int | Carried_unknown

type edge = {
  e_src : int;  (* body position of the source access *)
  e_snk : int;  (* body position of the sink access *)
  e_array : string;
  e_kind : Dependence.kind;
  e_dirs : Subscript.direction array;  (* per depth, outermost first *)
  e_dist : int option array;  (* exact iteration distance per depth *)
  e_carried : carried;
  e_assumed : bool;
}

type t = {
  g_kernel : Kernel.t;
  g_depth : int;
  g_loop_vars : string list;
  g_edges : edge list;
}

let carried_to_string = function
  | Independent -> "independent"
  | Carried d -> Printf.sprintf "carried@%d" d
  | Carried_unknown -> "carried@?"

(* --- construction ------------------------------------------------------- *)

type mem_ref = { pos : int; store : bool; addr : Instr.addr }

let collect_refs (k : Kernel.t) =
  List.concat
    (List.mapi
       (fun pos instr ->
         match instr with
         | Instr.Load { addr; _ } -> [ { pos; store = false; addr } ]
         | Instr.Store { addr; _ } -> [ { pos; store = true; addr } ]
         | Instr.Bin _ | Instr.Una _ | Instr.Fma _ | Instr.Cmp _
         | Instr.Select _ | Instr.Cast _ ->
             [])
       k.body)

let classify_carried dirs =
  let n = Array.length dirs in
  let rec go i =
    if i >= n then Independent
    else
      match dirs.(i) with
      | Subscript.Eq -> go (i + 1)
      | Subscript.Lt -> Carried i
      | Subscript.Gt ->
          (* Cannot happen on normalized edges; treated as carried here so a
             raw (unnormalized) vector still classifies conservatively. *)
          Carried i
  in
  go 0

let flip_dir = function
  | Subscript.Lt -> Subscript.Gt
  | Subscript.Gt -> Subscript.Lt
  | Subscript.Eq -> Subscript.Eq

(* Normalize one feasible (dirs, dist) between r1 and r2 into an edge whose
   source instance executes no later than its sink.  [Subscript] reports
   dist = t1 - t2; edges store the conventional sink-minus-source iteration
   distance, positive at the carrying depth.  [None] drops the trivial
   self-instance case. *)
let normalize ~depth:_ r1 r2 ~assumed (dirs, dist) =
  let first_non_eq =
    Array.to_list dirs |> List.find_opt (fun d -> d <> Subscript.Eq)
  in
  let src, snk, dirs, dist =
    match first_non_eq with
    | Some Subscript.Gt ->
        (* Instance of r2 executes first: flip the vector; dist = t1 - t2 is
           already sink minus source. *)
        (r2, r1, Array.map flip_dir dirs, dist)
    | Some _ ->
        (* Instance of r1 executes first: sink minus source = t2 - t1. *)
        (r1, r2, dirs, Array.map (Option.map (fun d -> -d)) dist)
    | None ->
        (* Loop-independent: ordered by body position; distances all 0. *)
        if r1.pos <= r2.pos then (r1, r2, dirs, dist) else (r2, r1, dirs, dist)
  in
  if first_non_eq = None && r1.pos = r2.pos then None
  else
    Some
      {
        e_src = src.pos;
        e_snk = snk.pos;
        e_array = Instr.addr_array r1.addr;
        e_kind =
          (match (src.store, snk.store) with
          | true, false -> Dependence.Flow
          | false, true -> Dependence.Anti
          | true, true -> Dependence.Output
          | false, false -> invalid_arg "Depgraph: load/load pair");
        e_dirs = dirs;
        e_dist = dist;
        e_carried = classify_carried dirs;
        e_assumed = assumed;
      }

let star_edges ~depth r1 r2 ~assumed =
  (* Unanalyzable pair: a dependence may run either way at any depth.
     Record one conservatively-carried edge per order. *)
  let mk src snk =
    {
      e_src = src.pos;
      e_snk = snk.pos;
      e_array = Instr.addr_array r1.addr;
      e_kind =
        (match (src.store, snk.store) with
        | true, false -> Dependence.Flow
        | false, true -> Dependence.Anti
        | true, true -> Dependence.Output
        | false, false -> invalid_arg "Depgraph: load/load pair");
      e_dirs = Array.make depth Subscript.Lt;
      e_dist = Array.make depth None;
      e_carried = Carried_unknown;
      e_assumed = assumed;
    }
  in
  if r1.pos = r2.pos then [ mk r1 r2 ]
  else [ mk r1 r2; mk r2 r1 ]

let test_pair ~depth ~(k : Kernel.t) r1 r2 =
  if (not r1.store) && not r2.store then []
  else
    let arr1 = Instr.addr_array r1.addr and arr2 = Instr.addr_array r2.addr in
    if not (String.equal arr1 arr2) then []
    else
      match (r1.addr, r2.addr) with
      | Instr.Affine { dims = dims1; _ }, Instr.Affine { dims = dims2; _ }
        when List.length dims1 = List.length dims2 -> (
          match Subscript.directions ~k dims1 dims2 with
          | Some feasible ->
              List.filter_map (normalize ~depth r1 r2 ~assumed:false) feasible
          | None -> star_edges ~depth r1 r2 ~assumed:false)
      | (Instr.Affine _ | Instr.Indirect _), _ ->
          (* Indirect on at least one side, or mismatched dimensionality:
             assume index arrays are conflict-free permutations, mirroring
             [Dependence]. *)
          star_edges ~depth r1 r2 ~assumed:true

let edge_order e =
  ( e.e_array,
    e.e_src,
    e.e_snk,
    Array.to_list e.e_dirs,
    Array.to_list e.e_dist,
    e.e_assumed )

let build (k : Kernel.t) =
  let depth = List.length k.loops in
  let refs = collect_refs k in
  let rec pairs acc = function
    | [] -> acc
    | r :: rest ->
        let here =
          List.concat_map (fun r' -> test_pair ~depth ~k r r') (r :: rest)
        in
        pairs (List.rev_append here acc) rest
  in
  let edges =
    pairs [] refs
    |> List.sort_uniq (fun a b -> compare (edge_order a) (edge_order b))
  in
  {
    g_kernel = k;
    g_depth = depth;
    g_loop_vars = List.map (fun (l : Kernel.loop) -> l.var) k.loops;
    g_edges = edges;
  }

(* --- queries ------------------------------------------------------------ *)

(* Count of dependences carried at each depth; unknown-depth edges are
   charged to the innermost loop (the conservative place: they block
   vectorization there). *)
let carried_counts g =
  let counts = Array.make (max 1 g.g_depth) 0 in
  List.iter
    (fun e ->
      match e.e_carried with
      | Carried d -> counts.(d) <- counts.(d) + 1
      | Carried_unknown ->
          let d = max 0 (g.g_depth - 1) in
          counts.(d) <- counts.(d) + 1
      | Independent -> ())
    g.g_edges;
  counts

(* Minimum exact distance at the carrying depth across carried edges;
   edges carried at an unknown distance count as distance 1 (the
   conservative reading [Dependence] also uses).  [None] = nothing is
   carried. *)
let min_carried_distance g =
  List.fold_left
    (fun acc e ->
      let dist =
        match e.e_carried with
        | Independent -> None
        | Carried d -> (
            match e.e_dist.(d) with Some x -> Some (abs x) | None -> Some 1)
        | Carried_unknown -> Some 1
      in
      match (acc, dist) with
      | None, d -> d
      | d, None -> d
      | Some a, Some b -> Some (min a b))
    None g.g_edges

let pp_edge fmt e =
  Format.fprintf fmt "%s dep on %s: %d -> %d, dirs (%s), %s%s"
    (Dependence.kind_to_string e.e_kind)
    e.e_array e.e_src e.e_snk
    (Subscript.dirs_to_string e.e_dirs)
    (carried_to_string e.e_carried)
    (if e.e_assumed then " (assumed safe)" else "")

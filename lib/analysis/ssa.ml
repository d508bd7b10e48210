(* Explicit SSA view of a kernel.

   A kernel body is already in SSA-by-position form — the instruction at
   index [k] defines virtual register [k], stores define nothing — but that
   invariant is implicit everywhere else in the codebase.  This module makes
   it checkable ([check] rejects uses of undefined or store-position
   registers and uses that precede their definition), and builds the
   structured control-flow graph of the loop nest together with its
   dominator tree so the optimizer's redundancy elimination can phrase its
   legality question the classical way: a definition may replace a use only
   when it dominates it.

   The CFG of a perfect nest of depth d is fixed by the shape:

     Entry -> Header 0 -> ... -> Header (d-1) -> Body -> Latch (d-1)
     Latch i -> Header i                      (back edge)
     Header i -> Latch (i-1)   (i > 0)       (loop exit, to outer latch)
     Header 0 -> Exit

   Immediate dominators are computed with the Cooper–Harvey–Kennedy
   iterative algorithm over reverse postorder; on this reducible graph it
   converges in two sweeps. *)

open Vir

type node = Entry | Header of int | Body | Latch of int | Exit

exception Not_ssa of string

type t = {
  kernel : Kernel.t;
  body : Instr.t array;
  nodes : node array;  (* node index -> label *)
  succ : int list array;
  pred : int list array;
  rpo : int array;  (* node indices in reverse postorder *)
  idom : int array;  (* immediate dominator; the entry maps to itself *)
  entry : int;
  block : int;  (* index of the [Body] node *)
}

(* --- SSA well-formedness --------------------------------------------------- *)

let check (k : Kernel.t) =
  let body = Array.of_list k.Kernel.body in
  let n = Array.length body in
  let check_use ctx r =
    if r < 0 || r >= n then
      raise (Not_ssa (Printf.sprintf "%s reads undefined register r%d" ctx r));
    if Instr.is_store body.(r) then
      raise
        (Not_ssa
           (Printf.sprintf "%s reads r%d, which is a store and defines nothing"
              ctx r))
  in
  Array.iteri
    (fun pos instr ->
      List.iter
        (fun r ->
          let ctx = Printf.sprintf "instruction %d" pos in
          check_use ctx r;
          if r >= pos then
            raise
              (Not_ssa
                 (Printf.sprintf
                    "instruction %d reads r%d before its definition" pos r)))
        (Instr.reg_uses instr))
    body;
  List.iter
    (fun (red : Kernel.reduction) ->
      match red.red_src with
      | Instr.Reg r -> check_use ("reduction " ^ red.red_name) r
      | _ -> ())
    k.reductions

(* --- CFG + dominators ------------------------------------------------------ *)

let postorder nnodes succ entry =
  let seen = Array.make nnodes false in
  let order = ref [] in
  let rec dfs v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter dfs succ.(v);
      order := v :: !order
    end
  in
  dfs entry;
  (* [order] is already reverse postorder: each node is prepended after its
     successors finished. *)
  Array.of_list !order

let compute_idom nnodes succ pred entry =
  let rpo = postorder nnodes succ entry in
  let rpo_num = Array.make nnodes max_int in
  Array.iteri (fun i v -> rpo_num.(v) <- i) rpo;
  let idom = Array.make nnodes (-1) in
  idom.(entry) <- entry;
  let rec intersect a b =
    if a = b then a
    else if rpo_num.(a) > rpo_num.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> entry then
          match List.filter (fun p -> idom.(p) >= 0) pred.(b) with
          | [] -> ()
          | p0 :: rest ->
              let d = List.fold_left (fun acc p -> intersect acc p) p0 rest in
              if idom.(b) <> d then begin
                idom.(b) <- d;
                changed := true
              end)
      rpo
  done;
  (rpo, idom)

let of_kernel (k : Kernel.t) =
  check k;
  let d = List.length k.Kernel.loops in
  let entry = 0 in
  let header i = 1 + i in
  let block = 1 + d in
  let latch i = d + 2 + i in
  let exit = (2 * d) + 2 in
  let nnodes = (2 * d) + 3 in
  let nodes =
    Array.init nnodes (fun ix ->
        if ix = entry then Entry
        else if ix <= d then Header (ix - 1)
        else if ix = block then Body
        else if ix < exit then Latch (ix - d - 2)
        else Exit)
  in
  let succ = Array.make nnodes [] in
  let pred = Array.make nnodes [] in
  let edge a b =
    succ.(a) <- b :: succ.(a);
    pred.(b) <- a :: pred.(b)
  in
  edge entry (header 0);
  for i = 0 to d - 1 do
    edge (header i) (if i = d - 1 then block else header (i + 1));
    edge (header i) (if i = 0 then exit else latch (i - 1));
    edge (latch i) (header i)
  done;
  edge block (latch (d - 1));
  Array.iteri (fun v l -> succ.(v) <- List.rev l) succ;
  Array.iteri (fun v l -> pred.(v) <- List.rev l) pred;
  let rpo, idom = compute_idom nnodes succ pred entry in
  { kernel = k; body = Array.of_list k.Kernel.body; nodes; succ; pred; rpo;
    idom; entry; block }

let dominates t a b =
  let rec up v = v = a || (v <> t.entry && up t.idom.(v)) in
  up b

let dom_depth t v =
  let rec up v acc = if v = t.entry then acc else up t.idom.(v) (acc + 1) in
  up v 0

(* Both positions live in the single [Body] block, so a definition dominates
   a use exactly when it textually precedes it; the bound checks make this
   total. *)
let def_dominates_use t ~def ~use =
  def >= 0 && use >= 0 && def < use && use < Array.length t.body

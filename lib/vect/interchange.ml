(* Loop interchange for 2-level perfect nests.

   The enabling transform of the loop-interchange TSVC category: a kernel
   whose innermost direction carries a recurrence (s232-style) can become
   vectorizable by running the nest the other way — usually trading the
   dependence for column-strided accesses, which is exactly the kind of
   trade a cost model must price.

   Legality is the textbook direction-vector condition: interchange is
   illegal iff some dependence has direction (<, >) — carried forward by
   the outer loop and backward by the inner one — because swapping would
   reverse its execution order.  Direction vectors come from the
   nest-wide dependence graph ([Vdeps.Depgraph] via [Vdeps.Legality]),
   which decides coupled subscripts through the Banerjee-bound direction
   tests; anything whose direction stays unknown is a refusal. *)

open Vir

type error =
  | Not_two_level
  | Imperfect of string  (* why the direction vectors could not be computed *)
  | Illegal_direction of string  (* array with a (<, >) dependence *)

let legal (k : Kernel.t) =
  match Vdeps.Legality.interchange_verdict k with
  | Vdeps.Legality.Ix_legal -> Ok ()
  | Vdeps.Legality.Ix_illegal arr -> Error (Illegal_direction arr)
  | Vdeps.Legality.Ix_inapplicable why ->
      if List.length k.loops <> 2 then Error Not_two_level
      else Error (Imperfect why)

let apply (k : Kernel.t) =
  match legal k with
  | Error e -> Error e
  | Ok () -> (
      match k.loops with
      | [ outer; inner ] ->
          Ok
            { k with
              Kernel.name = k.Kernel.name ^ ".interchanged";
              loops = [ inner; outer ] }
      | _ -> Error Not_two_level)

(* The enabling-transform pipeline: if the nest is not vectorizable as
   written but is after interchange, return the interchanged kernel. *)
let enable_vectorization (k : Kernel.t) =
  if Vdeps.Dependence.vectorizable k then None
  else
    match apply k with
    | Error _ -> None
    | Ok k' -> if Vdeps.Dependence.vectorizable k' then Some k' else None

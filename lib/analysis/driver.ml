(* Analysis driver: run the scalar lints plus the vector-IR validation
   matrix (transform x VF) over one kernel or a whole registry, and render
   the results for humans or as JSON.  This is what both the [vecmodel
   lint] subcommand and the test-suite gate call. *)

open Vir

type transform = Tllv | Tslp | Tunroll

let all_transforms = [ Tllv; Tslp; Tunroll ]

let transform_to_string = function
  | Tllv -> "llv"
  | Tslp -> "slp"
  | Tunroll -> "unroll"

let transform_of_string = function
  | "llv" -> Some Tllv
  | "slp" -> Some Tslp
  | "unroll" -> Some Tunroll
  | _ -> None

(* The acceptance matrix: every kernel is validated at these factors. *)
let default_vfs = [ 2; 4; 8 ]

type vec_outcome =
  | Checked of Diag.t list  (* transform applied; validator diagnostics *)
  | Skipped of string  (* transform not applicable to this kernel *)

type vec_result = { vr_transform : transform; vr_vf : int; vr_outcome : vec_outcome }

type report = {
  r_kernel : string;
  r_scalar : Diag.t list;  (* lint passes over the scalar body *)
  r_vector : vec_result list;
}

(* A transform applied to a kernel: the vectorizers give a vector kernel,
   unrolling a scalar one. *)
type applied = Vector of Vvect.Vinstr.vkernel | Unrolled of Kernel.t

(* The one place a transform is applied.  [force] skips the vectorizers'
   legality oracle (the cross-check's forced configurations); unrolling
   always applies. *)
let apply ?(force = false) tr ~vf (k : Kernel.t) =
  let vector error_to_string = function
    | Ok vk -> Ok (Vector vk)
    | Error e -> Error (error_to_string e)
  in
  match tr with
  | Tllv -> vector Vvect.Llv.error_to_string (Vvect.Llv.vectorize ~vf ~force k)
  | Tslp -> vector Vvect.Slp.error_to_string (Vvect.Slp.vectorize ~vf ~force k)
  | Tunroll -> Ok (Unrolled (Vvect.Unroll.by vf k))

let validate_transformed tr ~vf (k : Kernel.t) : vec_outcome =
  match apply tr ~vf k with
  | Error reason -> Skipped reason
  | Ok (Vector vk) -> Checked (Vvalidate.errors vk)
  | Ok (Unrolled u) ->
      let structural =
        List.map
          (fun m ->
            Diag.error ~pass:"unroll-validate" ~kernel:k.Kernel.name "%s" m)
          (Validate.errors u)
      in
      Checked (structural @ Equiv.unrolled_diags ~orig:k ~uf:vf u)

(* Scalar diagnostics are canonicalized (total order + dedup) so the
   rendered report is byte-stable whatever the worker count; the vector
   matrix likewise per configuration. *)
let lint ~transforms ~vfs (k : Kernel.t) : report =
  let scalar = Diag.canonical (Lints.run_all k) in
  let vector =
    List.concat_map
      (fun tr ->
        List.map
          (fun vf ->
            let outcome =
              match validate_transformed tr ~vf k with
              | Checked ds -> Checked (Diag.canonical ds)
              | Skipped _ as s -> s
            in
            { vr_transform = tr; vr_vf = vf; vr_outcome = outcome })
          vfs)
      transforms
  in
  { r_kernel = k.Kernel.name; r_scalar = scalar; r_vector = vector }

let lint_kernel ?(vfs = default_vfs) k = lint ~transforms:all_transforms ~vfs k

(* Kernels are independent, so the registry-wide gate fans out over the
   shared domain pool; parallel_map keeps the report order deterministic. *)
let lint_kernels ?(transforms = all_transforms) ?(vfs = default_vfs) ks =
  Vpar.Pool.parallel_map (lint ~transforms ~vfs) ks

(* All diagnostics of a report, vector outcomes included. *)
let report_diags r =
  r.r_scalar
  @ List.concat_map
      (fun vr -> match vr.vr_outcome with Checked ds -> ds | Skipped _ -> [])
      r.r_vector

let error_count r = Diag.count_errors (report_diags r)
let has_errors r = error_count r > 0

(* --- human rendering -------------------------------------------------------- *)

let print_report ?(verbose = false) oc r =
  let diags = report_diags r in
  let errors = Diag.count_errors diags in
  let warnings =
    List.length (List.filter (fun d -> d.Diag.severity = Diag.Warning) diags)
  in
  let checked, skipped =
    List.partition
      (fun vr -> match vr.vr_outcome with Checked _ -> true | Skipped _ -> false)
      r.r_vector
  in
  Printf.fprintf oc "%-10s %d error(s), %d warning(s); vector IR checked %d/%d\n"
    r.r_kernel errors warnings (List.length checked) (List.length r.r_vector);
  List.iter
    (fun d ->
      if verbose || d.Diag.severity <> Diag.Info then
        Printf.fprintf oc "  %s\n" (Diag.to_string d))
    (Diag.sort diags);
  if verbose then
    List.iter
      (fun vr ->
        match vr.vr_outcome with
        | Skipped reason ->
            Printf.fprintf oc "  note: %s @ vf %d skipped: %s\n"
              (transform_to_string vr.vr_transform)
              vr.vr_vf reason
        | Checked _ -> ())
      skipped

let print_summary oc reports =
  let total_errors = List.fold_left (fun a r -> a + error_count r) 0 reports in
  let dirty = List.length (List.filter has_errors reports) in
  Printf.fprintf oc "%d kernel(s) linted, %d with errors, %d error(s) total\n"
    (List.length reports) dirty total_errors

(* --- JSON rendering ---------------------------------------------------------- *)

let vec_result_to_json vr =
  let status, extra =
    match vr.vr_outcome with
    | Checked ds ->
        ( (if Diag.count_errors ds = 0 then "ok" else "failed"),
          ("diagnostics", Vjson.List (List.map Diag.to_json ds)) )
    | Skipped reason -> ("skipped", ("reason", Vjson.Str reason))
  in
  Vjson.(
    Obj
      [ ("transform", Str (transform_to_string vr.vr_transform));
        ("vf", Num (float_of_int vr.vr_vf)); ("status", Str status); extra ])

let report_to_json r =
  Vjson.(
    Obj
      [ ("kernel", Str r.r_kernel); ("errors", Num (float_of_int (error_count r)));
        ("scalar", List (List.map Diag.to_json r.r_scalar));
        ("vector", List (List.map vec_result_to_json r.r_vector)) ])

(** Analysis driver: scalar lints plus the vector-IR validation matrix
    (transform x VF), with human and JSON rendering.  Used by the CLI
    [lint] subcommand and the test-suite gate. *)

open Vir

type transform = Tllv | Tslp | Tunroll

val all_transforms : transform list
val transform_to_string : transform -> string
val transform_of_string : string -> transform option

(** VFs of the acceptance matrix: [2; 4; 8]. *)
val default_vfs : int list

type vec_outcome =
  | Checked of Diag.t list
  | Skipped of string  (** transform not applicable to this kernel *)

type vec_result = {
  vr_transform : transform;
  vr_vf : int;
  vr_outcome : vec_outcome;
}

type report = {
  r_kernel : string;
  r_scalar : Diag.t list;
  r_vector : vec_result list;
}

(** A transform applied to a kernel. *)
type applied =
  | Vector of Vvect.Vinstr.vkernel  (** LLV or SLP *)
  | Unrolled of Kernel.t

(** Apply one transform at [vf]: the error is why it does not apply.
    [force] (default [false]) bypasses the vectorizers' legality oracle;
    unrolling always applies. *)
val apply :
  ?force:bool -> transform -> vf:int -> Kernel.t -> (applied, string) result

(** Vectorize (or unroll) and validate one configuration. *)
val validate_transformed : transform -> vf:int -> Kernel.t -> vec_outcome

(** Every transform at each of [vfs] (default 2, 4 and 8). *)
val lint_kernel : ?vfs:int list -> Kernel.t -> report

val lint_kernels :
  ?transforms:transform list -> ?vfs:int list -> Kernel.t list -> report list

val report_diags : report -> Diag.t list
val error_count : report -> int
val has_errors : report -> bool

val print_report : ?verbose:bool -> out_channel -> report -> unit
val print_summary : out_channel -> report list -> unit

val report_to_json : report -> Vjson.t

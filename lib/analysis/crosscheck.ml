(* The cross-check over the (kernel, transform, VF) space: the empirical
   soundness gates behind [vecmodel deps --crosscheck], [vecmodel effects
   --crosscheck], F12 and the bench artifact.

   Every configuration is forced (the legality oracle bypassed) and held to
   one obligation:
   - [Semantics] (LLV, SLP): the multiset translation validator AND the
     reference interpreter accept the vector kernel.  It must hold wherever
     the oracle admits the configuration; where the oracle refuses it, a
     configuration that holds anyway is mere conservatism and only lowers
     recall.
   - [Effects] (LLV, SLP, unroll): the transformed kernel's effects are
     statically subsumed by the source license and, for oracle-legal
     configurations, every access observed through the interpreter's trace
     hits a licensed (array, direction) inside its static region.  It must
     hold for every configuration: an escape means the ownership decisions
     derived from the source summary would have been wrong for the code the
     backend actually executes.

   A kernel's configurations share one source memo: the reference run and
   the static regions at each size, each computed once. *)

open Vir
module E = Vexec.Effects
module I = Vinterp.Interp

type obligation = Semantics | Effects

type verdict =
  | Holds
  | Refuted  (* Semantics: the validator or the interpreter disagrees *)
  | Escape of string  (* Effects: where the transformed effects escape *)
  | Inapplicable of string  (* the forced transform does not apply *)

type config = {
  c_kernel : string;
  c_transform : Driver.transform;
  c_vf : int;
  c_obligation : obligation;
  c_legal : bool;  (* whether the legality oracle admits the config *)
  c_verdict : verdict;
}

(* --- the source memo ------------------------------------------------------ *)

(* The source kernel at one size: its reference behaviour (final memory and
   reductions, [None] where the reference interpreter raises) and its
   static regions, which only [Effects] forces. *)
type at_size = {
  reference : ((string * float array) list * (string * float) list) option;
  regions : Effect.region list Lazy.t;
}

(* A kernel's configurations run on one domain, so the lazy regions are
   never forced concurrently. *)
let source (k : Kernel.t) =
  let memo = Vpar.Memo.create () in
  fun n ->
    Vpar.Memo.find_or_compute memo n (fun () ->
        {
          reference =
            (match I.run ~n k with
            | exception _ -> None
            | rs -> Some (Vinterp.Env.snapshot rs.I.env, rs.I.reductions));
          regions = lazy (Effect.regions ~n k);
        })

(* --- Semantics ------------------------------------------------------------ *)

(* Reductions tolerate reassociation noise (relative 1e-4); NaN equals
   NaN. *)
let red_equal r1 r2 =
  List.length r1 = List.length r2
  && List.for_all2
       (fun (n1, v1) (n2, v2) ->
         String.equal n1 n2
         && (Equiv.float_eq v1 v2
             || abs_float (v1 -. v2)
                <= 1e-4 *. (abs_float v1 +. abs_float v2 +. 1.0)))
       r1 r2

(* Multiset translation validation AND reference-interpreter equivalence at
   every size in [Equiv.semantic_sizes].  The multiset check alone cannot
   see execution-order violations (it compares which locations are touched,
   not in what order), so the interpreter leg is what catches an illegal
   width actually computing wrong values.  A size where the source has no
   reference behaviour is skipped. *)
let semantics src (vk : Vvect.Vinstr.vkernel) =
  Diag.count_errors (Equiv.vkernel_diags vk) = 0
  && List.for_all
       (fun n ->
         match (src n).reference with
         | None -> true
         | Some (mem, reds) -> (
             match Vvect.Vexec.run ~n vk with
             | exception _ -> false
             | rv ->
                 Vinterp.Env.snapshot rv.I.env = mem
                 && red_equal reds rv.I.reductions))
       Equiv.semantic_sizes

let validates (k : Kernel.t) vk = semantics (source k) vk

(* --- Effects -------------------------------------------------------------- *)

(* Run [run_in] on a fresh environment of [k] at size [n] under an access
   trace: the observed footprint, (array, is_write) -> index range, or the
   exception the run raised. *)
let observe (k : Kernel.t) ~n run_in =
  let tbl = Hashtbl.create 16 in
  let on_access arr idx write =
    match Hashtbl.find_opt tbl (arr, write) with
    | Some (lo, hi) ->
        if idx < !lo then lo := idx;
        if idx > !hi then hi := idx
    | None -> Hashtbl.replace tbl (arr, write) (ref idx, ref idx)
  in
  match
    let env = Vinterp.Env.create ~n k in
    Vinterp.Env.set_trace env on_access;
    run_in env;
    Vinterp.Env.clear_trace env
  with
  | () -> Ok tbl
  | exception e -> Error (Printexc.to_string e)

(* Every observed access must be licensed by the summary and fall inside
   its static region at this size.  Unbounded (widened) regions place no
   index obligation — the license flags still apply.  Violations are
   returned sorted, so reports are deterministic. *)
let contained ~license ~regions tbl =
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
            (fun (r : Effect.region) ->
              String.equal r.r_array arr && r.r_write = write)
            regions
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

(* Unrolling is only an exact transformation at sizes where the innermost
   trip divides the factor — elsewhere the unrolled body overshoots the
   source iteration space by construction, which is an artefact of the
   size, not an effect escape.  Trace at the nearest exact size at or above
   each semantic one. *)
let exact_sizes (k : Kernel.t) vf =
  List.sort_uniq compare
    (List.filter_map
       (fun n ->
         let rec find m =
           if m > n + (8 * vf) then None
           else if Vvect.Unroll.exact_for ~n:m k vf then Some m
           else find (m + 1)
         in
         find n)
       Equiv.semantic_sizes)

(* Static subsumption, then trace containment at every size where the
   source has reference behaviour; a transformed run that traps where the
   source does not is itself an escape.  Forced-illegal configurations
   carry the static obligation only: their runtime semantics are not the
   source's, so an observed trace would compare apples to oranges. *)
let effects src (k : Kernel.t) ~vf ~legal (applied : Driver.applied) =
  let license = E.of_kernel k in
  let sub, sizes, observe_at =
    match applied with
    | Driver.Vector vk ->
        ( Effect.vkernel_effects vk,
          Equiv.semantic_sizes,
          fun n ->
            observe vk.Vvect.Vinstr.scalar ~n (fun env ->
                ignore (Vvect.Vexec.run_in env vk)) )
    | Driver.Unrolled u ->
        (* The unroller suffixes the kernel name; the obligation is against
           the source summary, so analyze the unrolled body under the
           source name. *)
        ( E.of_kernel { u with Kernel.name = k.Kernel.name },
          exact_sizes k vf,
          fun n -> observe u ~n (fun env -> ignore (I.run_in env u)) )
  in
  let rec trace = function
    | [] -> Holds
    | n :: rest -> (
        let at = src n in
        if Option.is_none at.reference then trace rest
        else
          match observe_at n with
          | Error e -> Escape (Printf.sprintf "n=%d: run trapped: %s" n e)
          | Ok tbl -> (
              match contained ~license ~regions:(Lazy.force at.regions) tbl with
              | [] -> trace rest
              | v :: _ -> Escape (Printf.sprintf "n=%d: %s" n v)))
  in
  if not (E.subsumes ~summary:license sub) then
    Escape
      (Printf.sprintf "static: transformed effects [%s] escape [%s]"
         (E.to_string sub) (E.to_string license))
  else if not legal then Holds
  else trace sizes

(* --- the sweep ------------------------------------------------------------ *)

let transforms = function
  | Semantics -> [ Driver.Tllv; Driver.Tslp ]
  | Effects -> Driver.all_transforms

let config ob src (k : Kernel.t) (tr : Driver.transform) ~vf =
  let legal =
    match tr with
    | Driver.Tllv -> Vdeps.Legality.llv_ok k ~vf
    | Driver.Tslp -> Vdeps.Legality.slp_ok k ~vf
    | Driver.Tunroll -> true (* the statement order survives unrolling *)
  in
  let verdict =
    match (ob, Driver.apply ~force:true tr ~vf k) with
    | _, Error why -> Inapplicable why
    | Semantics, Ok (Driver.Vector vk) ->
        if semantics src vk then Holds else Refuted
    | Semantics, Ok (Driver.Unrolled _) ->
        invalid_arg "Crosscheck: unrolling carries no semantic obligation"
    | Effects, Ok applied -> effects src k ~vf ~legal applied
  in
  {
    c_kernel = k.Kernel.name;
    c_transform = tr;
    c_vf = vf;
    c_obligation = ob;
    c_legal = legal;
    c_verdict = verdict;
  }

let check ob k tr ~vf = config ob (source k) k tr ~vf

let kernel ob vfs (k : Kernel.t) =
  let src = source k in
  List.concat_map
    (fun tr -> List.map (fun vf -> config ob src k tr ~vf) vfs)
    (transforms ob)

(* Kernels are independent; parallel_map keeps registry order. *)
let run ob ?(vfs = Driver.default_vfs) ks =
  List.concat (Vpar.Pool.parallel_map (kernel ob vfs) ks)

(* --- verdicts ------------------------------------------------------------- *)

(* Whether the obligation must hold on this configuration. *)
let required c = c.c_obligation = Effects || c.c_legal

type stats = {
  st_tp : int;
  st_fp : int;
  st_fn : int;
  st_tn : int;
  st_inapplicable : int;
}

let stats configs =
  List.fold_left
    (fun st c ->
      match (c.c_verdict, required c) with
      | Inapplicable _, _ -> { st with st_inapplicable = st.st_inapplicable + 1 }
      | Holds, true -> { st with st_tp = st.st_tp + 1 }
      | _, true -> { st with st_fp = st.st_fp + 1 }
      | Holds, false -> { st with st_fn = st.st_fn + 1 }
      | _, false -> { st with st_tn = st.st_tn + 1 })
    { st_tp = 0; st_fp = 0; st_fn = 0; st_tn = 0; st_inapplicable = 0 }
    configs

(* Precision: of the configurations the obligation binds, the fraction
   where it holds.  Soundness demands 1.0.  Recall (Semantics): of the
   configurations that are in fact safe, the fraction the oracle admits —
   a measure of (useful) aggressiveness. *)
let precision st =
  if st.st_tp + st.st_fp = 0 then 1.0
  else float_of_int st.st_tp /. float_of_int (st.st_tp + st.st_fp)

let recall st =
  if st.st_tp + st.st_fn = 0 then 1.0
  else float_of_int st.st_tp /. float_of_int (st.st_tp + st.st_fn)

let failures configs =
  List.filter
    (fun c ->
      required c
      &&
      match c.c_verdict with
      | Refuted | Escape _ -> true
      | Holds | Inapplicable _ -> false)
    configs

let sound configs = failures configs = []

let config_to_string c =
  let v =
    match (c.c_verdict, c.c_obligation) with
    | Inapplicable why, _ -> "inapplicable: " ^ why
    | Escape why, _ -> "EFFECT ESCAPE: " ^ why
    | Holds, Effects -> "stable"
    | Holds, Semantics ->
        if c.c_legal then "legal, validated" else "refused, but safe"
    | Refuted, _ -> if c.c_legal then "LEGAL BUT REFUTED" else "refused, refuted"
  in
  Printf.sprintf "%s %s vf=%d%s: %s" c.c_kernel
    (Driver.transform_to_string c.c_transform)
    c.c_vf
    (if c.c_obligation = Effects && not c.c_legal then " (illegal, forced)"
     else "")
    v

(* --- rendering ------------------------------------------------------------ *)

let summary_fields ob configs =
  let st = stats configs in
  let count n = Vjson.Num (float_of_int n) in
  ("configs", count (List.length configs))
  ::
  (match ob with
  | Semantics ->
      [ ("tp", count st.st_tp); ("fp", count st.st_fp); ("fn", count st.st_fn);
        ("tn", count st.st_tn); ("inapplicable", count st.st_inapplicable);
        ("precision", Vjson.Num (precision st));
        ("recall", Vjson.Num (recall st)) ]
  | Effects ->
      [ ("stable", count st.st_tp); ("escapes", count st.st_fp);
        ("inapplicable", count st.st_inapplicable);
        ("precision", Vjson.Num (precision st)) ])

let print_summary ob oc configs =
  let st = stats configs in
  List.iter
    (fun c -> Printf.fprintf oc "%s\n" (config_to_string c))
    (failures configs);
  match ob with
  | Semantics ->
      Printf.fprintf oc
        "%d configuration(s): %d legal+validated, %d SOUNDNESS FAILURE(S), \
         %d conservative, %d refuted, %d inapplicable\n"
        (List.length configs) st.st_tp st.st_fp st.st_fn st.st_tn
        st.st_inapplicable;
      Printf.fprintf oc "oracle precision %.4f, recall %.4f\n" (precision st)
        (recall st)
  | Effects ->
      Printf.fprintf oc
        "%d configuration(s): %d stable, %d EFFECT ESCAPE(S), %d \
         inapplicable\n"
        (List.length configs) st.st_tp st.st_fp st.st_inapplicable;
      Printf.fprintf oc "effect precision %.4f\n" (precision st)

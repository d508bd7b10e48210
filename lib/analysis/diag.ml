(* Structured diagnostics shared by every analysis pass.

   A diagnostic ties a finding to the pass that produced it, a severity, and
   (when it concerns one instruction) a body position, so that callers can
   filter, count, render for humans or serialize to JSON without parsing
   message strings. *)

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* Errors sort first so the most urgent findings lead every report. *)
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type t = {
  pass : string;  (* registered pass name, e.g. "dead-result" *)
  severity : severity;
  kernel : string;
  pos : int option;  (* body position the finding anchors to, if any *)
  message : string;
}

let make ~pass ~severity ~kernel ?pos fmt =
  Printf.ksprintf
    (fun message -> { pass; severity; kernel; pos; message })
    fmt

let error ~pass ~kernel ?pos fmt = make ~pass ~severity:Error ~kernel ?pos fmt
let warning ~pass ~kernel ?pos fmt = make ~pass ~severity:Warning ~kernel ?pos fmt
let info ~pass ~kernel ?pos fmt = make ~pass ~severity:Info ~kernel ?pos fmt

let is_error d = d.severity = Error

let count_errors ds = List.length (List.filter is_error ds)

(* Stable order: severity, then position, then pass name. *)
let sort ds =
  List.stable_sort
    (fun a b ->
      let c = compare (severity_rank a.severity) (severity_rank b.severity) in
      if c <> 0 then c
      else
        let pa = Option.value a.pos ~default:max_int in
        let pb = Option.value b.pos ~default:max_int in
        let c = compare pa pb in
        if c <> 0 then c else String.compare a.pass b.pass)
    ds

(* Canonical order for rendered reports: keyed on every field, with
   duplicates collapsed, so output is byte-identical however the producing
   passes were scheduled. *)
let canonical ds =
  let key d =
    ( d.kernel,
      Option.value d.pos ~default:max_int,
      d.pass,
      severity_rank d.severity,
      d.message )
  in
  List.sort_uniq (fun a b -> compare (key a) (key b)) ds

let to_string d =
  Printf.sprintf "%s: %s: [%s]%s %s" d.kernel
    (severity_to_string d.severity)
    d.pass
    (match d.pos with Some p -> Printf.sprintf " instr %d:" p | None -> "")
    d.message

let pp fmt d = Format.pp_print_string fmt (to_string d)

(* --- JSON -------------------------------------------------------------- *)

let to_json d =
  Vjson.(
    Obj
      [ ("pass", Str d.pass); ("severity", Str (severity_to_string d.severity));
        ("kernel", Str d.kernel);
        ("pos", match d.pos with Some p -> Num (float_of_int p) | None -> Null);
        ("message", Str d.message) ])

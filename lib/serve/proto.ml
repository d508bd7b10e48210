(* The serving wire protocol.

   Requests and responses are newline-delimited JSON objects matched by
   [id].  Decoding is strict about shape (unknown ops, missing fields and
   wrong types are [E_bad_request]) but total: no input line, however
   malformed, raises out of this module. *)

type op =
  | Predict of { kernel : string; machine : string option; vf : int option }
  | Lint of { kernel : string }
  | Certify of { kernel : string; vf : int option }
  | Health
  | Stats
  | Reload of { path : string }
  | Shutdown

type request = { rq_id : string; rq_client : string; rq_op : op }

type error_code =
  | E_bad_request
  | E_unknown_kernel
  | E_unknown_machine
  | E_overload
  | E_rate_limited
  | E_deadline
  | E_dropped
  | E_reload_failed
  | E_internal

let error_code_to_string = function
  | E_bad_request -> "bad_request"
  | E_unknown_kernel -> "unknown_kernel"
  | E_unknown_machine -> "unknown_machine"
  | E_overload -> "overload"
  | E_rate_limited -> "rate_limited"
  | E_deadline -> "deadline"
  | E_dropped -> "dropped"
  | E_reload_failed -> "reload_failed"
  | E_internal -> "internal"

let error_code_of_string = function
  | "bad_request" -> Some E_bad_request
  | "unknown_kernel" -> Some E_unknown_kernel
  | "unknown_machine" -> Some E_unknown_machine
  | "overload" -> Some E_overload
  | "rate_limited" -> Some E_rate_limited
  | "deadline" -> Some E_deadline
  | "dropped" -> Some E_dropped
  | "reload_failed" -> Some E_reload_failed
  | "internal" -> Some E_internal
  | _ -> None

type response = {
  rs_id : string;
  rs_result : ((string * Vjson.t) list, error_code * string) result;
  rs_degraded : string list;
}

(* Big enough for any legitimate request (a kernel name and a path), small
   enough that a hostile client cannot balloon the line buffer. *)
let max_line_bytes = 16 * 1024

(* --- requests -------------------------------------------------------------- *)

let op_name = function
  | Predict _ -> "predict"
  | Lint _ -> "lint"
  | Certify _ -> "certify"
  | Health -> "health"
  | Stats -> "stats"
  | Reload _ -> "reload"
  | Shutdown -> "shutdown"

let request_to_line r =
  let base = [ ("id", Vjson.Str r.rq_id); ("op", Vjson.Str (op_name r.rq_op)) ] in
  let client =
    if r.rq_client = "" then [] else [ ("client", Vjson.Str r.rq_client) ]
  in
  let rest =
    match r.rq_op with
    | Predict { kernel; machine; vf } ->
        (("kernel", Vjson.Str kernel) :: Option.to_list (Option.map (fun m -> ("machine", Vjson.Str m)) machine))
        @ Option.to_list (Option.map (fun v -> ("vf", Vjson.Num (float_of_int v))) vf)
    | Lint { kernel } -> [ ("kernel", Vjson.Str kernel) ]
    | Certify { kernel; vf } ->
        ("kernel", Vjson.Str kernel)
        :: Option.to_list (Option.map (fun v -> ("vf", Vjson.Num (float_of_int v))) vf)
    | Health | Stats | Shutdown -> []
    | Reload { path } -> [ ("path", Vjson.Str path) ]
  in
  Vjson.to_string (Vjson.Obj (base @ client @ rest))

let request_of_line line =
  let err id fmt =
    Printf.ksprintf (fun m -> Error (id, E_bad_request, m)) fmt
  in
  if String.length line > max_line_bytes then
    err "" "request line over %d bytes" max_line_bytes
  else
    match Vjson.parse line with
    | Error m -> err "" "bad JSON: %s" m
    | Ok v -> (
        let id = Option.value ~default:"" (Vjson.mem_str "id" v) in
        let client = Option.value ~default:"" (Vjson.mem_str "client" v) in
        let vf =
          match Vjson.member "vf" v with
          | None -> Ok None
          | Some j -> (
              match Vjson.int j with
              | Some n when n >= 1 && n <= 64 -> Ok (Some n)
              | _ -> Error ())
        in
        let kernel () =
          match Vjson.mem_str "kernel" v with
          | Some k when k <> "" -> Ok k
          | _ -> Error ()
        in
        match (Vjson.mem_str "op" v, vf) with
        | None, _ -> err id "missing op"
        | _, Error () -> err id "vf must be an integer in [1, 64]"
        | Some "predict", Ok vf -> (
            match kernel () with
            | Error () -> err id "predict needs a kernel name"
            | Ok kernel ->
                Ok
                  { rq_id = id; rq_client = client;
                    rq_op =
                      Predict { kernel; machine = Vjson.mem_str "machine" v; vf } })
        | Some "lint", _ -> (
            match kernel () with
            | Error () -> err id "lint needs a kernel name"
            | Ok kernel -> Ok { rq_id = id; rq_client = client; rq_op = Lint { kernel } })
        | Some "certify", Ok vf -> (
            match kernel () with
            | Error () -> err id "certify needs a kernel name"
            | Ok kernel ->
                Ok { rq_id = id; rq_client = client; rq_op = Certify { kernel; vf } })
        | Some "health", _ -> Ok { rq_id = id; rq_client = client; rq_op = Health }
        | Some "stats", _ -> Ok { rq_id = id; rq_client = client; rq_op = Stats }
        | Some "reload", _ -> (
            match Vjson.mem_str "path" v with
            | Some path when path <> "" ->
                Ok { rq_id = id; rq_client = client; rq_op = Reload { path } }
            | _ -> err id "reload needs a path")
        | Some "shutdown", _ -> Ok { rq_id = id; rq_client = client; rq_op = Shutdown }
        | Some op, _ -> err id "unknown op %S" op)

(* --- responses ------------------------------------------------------------- *)

let response_to_line r =
  let degraded =
    match r.rs_degraded with
    | [] -> []
    | tags -> [ ("degraded", Vjson.List (List.map (fun t -> Vjson.Str t) tags)) ]
  in
  let fields =
    match r.rs_result with
    | Ok payload ->
        (("id", Vjson.Str r.rs_id) :: ("ok", Vjson.Bool true) :: degraded)
        @ payload
    | Error (code, msg) ->
        ("id", Vjson.Str r.rs_id) :: ("ok", Vjson.Bool false)
        :: ("error", Vjson.Str (error_code_to_string code))
        :: ("msg", Vjson.Str msg) :: degraded
  in
  Vjson.to_string (Vjson.Obj fields)

let response_of_line line =
  match Vjson.parse line with
  | Error m -> Error ("bad JSON: " ^ m)
  | Ok (Vjson.Obj fields as v) -> (
      let id = Option.value ~default:"" (Vjson.mem_str "id" v) in
      let degraded =
        match Vjson.member "degraded" v with
        | Some (Vjson.List l) -> List.filter_map Vjson.str l
        | _ -> []
      in
      match Vjson.member "ok" v with
      | Some (Vjson.Bool true) ->
          let payload =
            List.filter
              (fun (k, _) -> not (List.mem k [ "id"; "ok"; "degraded" ]))
              fields
          in
          Ok { rs_id = id; rs_result = Ok payload; rs_degraded = degraded }
      | Some (Vjson.Bool false) -> (
          let msg = Option.value ~default:"" (Vjson.mem_str "msg" v) in
          match Option.bind (Vjson.mem_str "error" v) error_code_of_string with
          | Some code ->
              Ok { rs_id = id; rs_result = Error (code, msg); rs_degraded = degraded }
          | None -> Error "response error code missing or unknown")
      | _ -> Error "response missing ok field")
  | Ok _ -> Error "response is not an object"

let ok ~id ?(degraded = []) payload =
  { rs_id = id; rs_result = Ok payload; rs_degraded = degraded }

let error ~id code msg =
  { rs_id = id; rs_result = Error (code, msg); rs_degraded = [] }

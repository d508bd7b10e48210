(** The serving wire protocol: newline-delimited JSON requests and
    responses.  One request per line, one response per line, matched by
    [id]; decoding is total (malformed input is a typed protocol error,
    never an exception escaping the serving loop). *)

(** A request as decoded from one line. *)
type op =
  | Predict of {
      kernel : string;
      machine : string option;  (** default: the server's machine *)
      vf : int option;  (** default: the machine's natural VF *)
    }
  | Lint of { kernel : string }
  | Certify of { kernel : string; vf : int option }
  | Health
  | Stats
  | Reload of { path : string }
  | Shutdown  (** flush the journal and stop the daemon *)

type request = { rq_id : string; rq_client : string; rq_op : op }

(** Typed rejection/failure codes; the wire form is {!error_code_to_string}. *)
type error_code =
  | E_bad_request  (** malformed JSON, missing fields, oversized line *)
  | E_unknown_kernel
  | E_unknown_machine
  | E_overload  (** queue full: admission control rejected the request *)
  | E_rate_limited  (** the client's token bucket is empty *)
  | E_deadline  (** the cooperative deadline expired before a decision *)
  | E_dropped  (** every attempt's work was lost; reported, never silent *)
  | E_reload_failed
  | E_internal

val error_code_to_string : error_code -> string

(** A response: the request id, either a payload object or a typed error,
    plus the degraded-mode tags that applied (e.g. ["baseline-model"],
    ["lint-skipped"], ["no-diagnostics"]). *)
type response = {
  rs_id : string;
  rs_result : ((string * Vjson.t) list, error_code * string) result;
  rs_degraded : string list;
}

(** Hard cap on one request line; longer lines are answered with
    [E_bad_request] and discarded unparsed. *)
val max_line_bytes : int

val request_to_line : request -> string

(** Decode one line.  [Error (code, msg)] carries the id when one could
    be recovered from the malformed object (so the client can match the
    rejection), else [""]. *)
val request_of_line : string -> (request, string * error_code * string) result

val response_to_line : response -> string
val response_of_line : string -> (response, string) result

val ok : id:string -> ?degraded:string list -> (string * Vjson.t) list -> response
val error : id:string -> error_code -> string -> response

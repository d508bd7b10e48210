(** The daemon transport: a single select loop serving newline-delimited
    JSON over a Unix-domain or loopback TCP socket, batching decoded
    requests through {!Vpar.Pool.supervised_map} so worker-domain faults
    ([pool.*] injection) surface as retries and explicit [dropped]
    answers, never lost requests.

    Crash-only: periodic journal checkpoints (see {!Engine}) are the only
    durability mechanism, so a [kill -9] loses at most the counters since
    the last checkpoint; SIGTERM/SIGINT and the protocol [shutdown] op
    flush the journal before exiting. *)

type transport = Unix_path of string | Tcp of int

val transport_to_string : transport -> string

(** Serve until a [shutdown] request or termination signal arrives.
    Prints one startup line on stdout ("fresh" or "resumed" with the
    replayed request count — the crash-restart check greps for it) and
    one stop line on exit.  At most 64 parsed requests are in flight per
    fan-out on the shared pool; arrivals beyond the engine's queue limit
    are rejected with [overload]. *)
val run : engine:Engine.t -> transport -> unit

(** Load testing the serving tier.

    [run_sim] drives an in-process {!Engine.t} through a deterministic
    virtual-time simulation: seeded exponential arrivals, a FIFO queue in
    front of [servers] virtual servers, admission against the engine's
    queue limit, and latencies measured on the virtual clock.  Because no
    wall time enters, the result — including the p50/p99 — is
    byte-identical across machines and worker counts, which is what lets
    CI pin a seeded chaos run.

    [run_socket] is the real client for a running daemon: it streams the
    same request mix over the socket, never more requests unanswered than
    the daemon's queue limit, matches responses by id and reports
    wall-clock latencies plus the zero-lost check. *)

type result = {
  lt_sent : int;
  lt_answered : int;  (** ok responses, degraded and partial included *)
  lt_rejected : int;  (** explicit rejections of any code *)
  lt_degraded : int;  (** answered carrying degraded tags *)
  lt_partials : int;  (** answered tagged ["no-diagnostics"] *)
  lt_dropped : int;  (** explicit [dropped] rejections *)
  lt_deadline : int;  (** explicit [deadline] rejections *)
  lt_overload : int;  (** [overload] + [rate_limited] rejections *)
  lt_p50 : float;  (** median sojourn (queue + service), seconds *)
  lt_p99 : float;
  lt_qps : float;  (** answered per second of makespan *)
  lt_makespan : float;
  lt_max_queue : int;  (** peak queue occupancy observed *)
  lt_digests : string list;  (** distinct model digests seen in answers *)
  lt_injected : (string * int) list;
      (** [serve.*] / [pool.*] injection counters observed during the run *)
}

val result_to_json : result -> Vjson.t

(** Human-readable multi-line summary. *)
val result_to_string : result -> string

(** Deterministic virtual-time simulation against a fresh engine built
    from [config].  [seed] drives arrivals and the request mix;
    [arrival_rate] is requests per virtual second across [servers]
    virtual servers. *)
val run_sim :
  ?seed:int -> ?requests:int -> ?servers:int -> ?arrival_rate:float ->
  config:Engine.config -> unit -> result

(** The chaos gate.  [Ok ()] when every request is accounted for
    (sent = answered + rejected), the virtual p99 stays under
    [p99_bound], and — when [expect_degraded] — at least one answer was
    served in a degraded mode (tagged or partial).  [Error] lists every
    violated condition. *)
val gate :
  ?p99_bound:float -> ?expect_degraded:bool -> result ->
  (unit, string list) Stdlib.result

(** Socket client mode: send [requests] requests to a daemon, read until
    every id is answered or [timeout_s] expires, then return the tally
    (latencies are wall-clock; determinism is not promised).  The
    daemon's [health] op, asked alone before the stream, supplies its
    [queue_limit], and the stream keeps at most that many requests
    unanswered, so the daemon's admission control never sheds it.  The
    [stats] op, asked alone before the stream and after its last answer,
    supplies [lt_injected]: the [serve.*] / [pool.*] injections the daemon
    counted in between.  [shutdown] sends a shutdown op last.  [Error] on
    connection failure, lost (unanswered) requests or an unanswered
    health or stats op. *)
val run_socket :
  ?requests:int -> ?timeout_s:float -> ?shutdown:bool ->
  Server.transport -> (result, string) Stdlib.result

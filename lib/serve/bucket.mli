(** Per-client token buckets over the serving tier's virtual clock.  A
    bucket holds up to [burst] tokens and refills at [rate] tokens per
    virtual second; each admitted request spends one token.  Decisions
    are a pure function of the request's virtual arrival time, so rate
    limiting is deterministic in the loadtest simulation. *)

type t

(** [create ~rate ~burst] starts full.  [rate <= 0] disables limiting
    (every request admitted). *)
val create : rate:float -> burst:float -> t

(** Spend one token at virtual time [now]; [false] means rate-limited.
    [now] must be monotone per bucket (earlier calls with later times
    would refill retroactively). *)
val admit : t -> now:float -> bool

(** A keyed family of buckets, one per client id, capped at [max_clients]
    tracked clients (beyond the cap, clients share the overflow bucket —
    a hostile client cannot balloon the table). *)
module Family : sig
  type bucket = t
  type t

  val create : rate:float -> burst:float -> t
  val admit : t -> client:string -> now:float -> bool
  val clients : t -> int
end

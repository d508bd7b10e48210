(** A content-keyed memo table safe to share between domains: the one
    memoization discipline of the sample cache, the execution memo, the
    LOOCV prediction memo and the serving engine's analysis memo.

    A lookup holds the lock only to read or publish.  A miss is computed
    outside it, so two domains missing one key both compute it and both
    publish; callers memoize pure computations, whose values are equal.
    A computation that raises publishes nothing, so the next lookup of its
    key computes again.  Keys are plain data (no functional values): they
    are hashed and compared structurally.  Tables never evict. *)

type ('k, 'v) t

(** Lookups answered from the table, lookups that computed, and the live
    entry count. *)
type stats = { hits : int; misses : int; entries : int }

val create : unit -> ('k, 'v) t

(** [find_or_compute t key compute] is the value published under [key],
    counted as a hit, or else [compute ()], counted as a miss and
    published under [key] unless it raises. *)
val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

val mem : ('k, 'v) t -> 'k -> bool

(** Drop the entry under the key, if any; the counters do not move. *)
val remove : ('k, 'v) t -> 'k -> unit

(** Fold over the live entries under the lock: [f] must not use [t]. *)
val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc

(** Counters since creation or the last {!clear}. *)
val stats : ('k, 'v) t -> stats

(** Drop every entry and zero the counters. *)
val clear : ('k, 'v) t -> unit

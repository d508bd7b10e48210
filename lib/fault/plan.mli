(** Declarative, seeded fault plans: which faults to inject, where, and
    how often.  Decisions are a pure function of (seed, site, kind, key),
    with keys derived from the content being processed — never from the
    worker running it — so injected runs are byte-identical across worker
    counts.

    Spec grammar ([VECMODEL_FAULTS] env var / [--faults]):
    {v
    SPEC   := [ CLAUSE ( ';' CLAUSE )* ]
    CLAUSE := 'seed=' INT | SITE '.' KIND '=' RATE [ '@' MAG ]
    SITE   := 'measure' | 'cache' | 'pool' | 'sanitize' | 'serve'
    KIND   := 'nan' | 'inf' | 'spike' | 'corrupt' | 'hang' | 'crash'
            | 'poison' | 'drop' | 'slow' | 'reject'
    v}
    Valid pairs: [measure.{nan,inf,spike}], [cache.corrupt],
    [pool.{hang,crash}], [sanitize.poison], [serve.{drop,slow,reject}].
    Rates are probabilities in [0, 1]; the optional magnitude is the
    spike multiplier, the simulated hang seconds, or the added virtual
    service seconds for [serve.slow]. *)

type site = Measure | Cache | Pool | Sanitize | Serve

val site_to_string : site -> string

type kind =
  | Nan | Inf | Spike | Corrupt | Hang | Crash | Poison | Drop | Slow
  | Reject

val kind_to_string : kind -> string

type clause = { site : site; kind : kind; rate : float; magnitude : float }
type t = { seed : int; clauses : clause list }

(** No clauses, seed 1: injects nothing. *)
val empty : t

val is_empty : t -> bool

(** Sort clauses by (site, kind) and keep the last clause per pair. *)
val normalize : t -> t

(** Canonical spec string; [parse (to_string p)] = [Ok (normalize p)]. *)
val to_string : t -> string

(** Parse a spec.  [Ok empty] on the empty string; [Error] names the
    offending clause. *)
val parse : string -> (t, string) result

(** Uniform draw in [0, 1), pure in all four arguments. *)
val u01 : seed:int -> site:site -> kind:kind -> key:string -> float

(** The plan's clause for (site, kind), if armed. *)
val find : t -> site:site -> kind:kind -> clause option

(** [draw p ~site ~kind ~key] is [Some magnitude] when the plan injects
    this fault for this key, [None] otherwise.  Deterministic. *)
val draw : t -> site:site -> kind:kind -> key:string -> float option

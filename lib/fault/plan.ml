(* Declarative, seeded fault plans.

   A plan is a seed plus a list of clauses, each arming one fault kind at
   one injection site with a rate (probability per decision) and a
   magnitude (spike multiplier, hang seconds).  Decisions are a pure
   function of (plan seed, site, kind, key): the key is always derived
   from the *content* being processed (kernel name, machine, task index,
   attempt number), never from which worker happens to run it, so an
   injected run is byte-identical across worker counts.

   Concrete grammar (the [VECMODEL_FAULTS] / [--faults] spec):

     SPEC   := [ CLAUSE ( ';' CLAUSE )* ]
     CLAUSE := 'seed=' INT
             | SITE '.' KIND '=' RATE [ '@' MAG ]
     SITE   := 'measure' | 'cache' | 'pool' | 'sanitize' | 'serve'
     KIND   := 'nan' | 'inf' | 'spike' | 'corrupt' | 'hang' | 'crash'
             | 'poison' | 'drop' | 'slow' | 'reject'

   e.g. "seed=7;measure.nan=0.02;measure.spike=0.05@16;pool.crash=0.01"

   Valid (site, kind) pairs: measure.{nan,inf,spike}, cache.{corrupt},
   pool.{hang,crash}, sanitize.{poison}, serve.{drop,slow,reject}.
   Rates are in [0, 1]; magnitudes are positive. *)

type site = Measure | Cache | Pool | Sanitize | Serve

let site_to_string = function
  | Measure -> "measure"
  | Cache -> "cache"
  | Pool -> "pool"
  | Sanitize -> "sanitize"
  | Serve -> "serve"

let site_of_string = function
  | "measure" -> Some Measure
  | "cache" -> Some Cache
  | "pool" -> Some Pool
  | "sanitize" -> Some Sanitize
  | "serve" -> Some Serve
  | _ -> None

type kind =
  | Nan | Inf | Spike | Corrupt | Hang | Crash | Poison | Drop | Slow
  | Reject

let kind_to_string = function
  | Nan -> "nan"
  | Inf -> "inf"
  | Spike -> "spike"
  | Corrupt -> "corrupt"
  | Hang -> "hang"
  | Crash -> "crash"
  | Poison -> "poison"
  | Drop -> "drop"
  | Slow -> "slow"
  | Reject -> "reject"

let kind_of_string = function
  | "nan" -> Some Nan
  | "inf" -> Some Inf
  | "spike" -> Some Spike
  | "corrupt" -> Some Corrupt
  | "hang" -> Some Hang
  | "crash" -> Some Crash
  | "poison" -> Some Poison
  | "drop" -> Some Drop
  | "slow" -> Some Slow
  | "reject" -> Some Reject
  | _ -> None

let valid_pair site kind =
  match (site, kind) with
  | Measure, (Nan | Inf | Spike) -> true
  | Cache, Corrupt -> true
  | Pool, (Hang | Crash) -> true
  | Sanitize, Poison -> true
  | Serve, (Drop | Slow | Reject) -> true
  | _ -> false

(* Spike: multiply the measurement; hang: simulated seconds; slow: added
   virtual service seconds in the serving tier. *)
let default_magnitude = function
  | Spike -> 16.0
  | Hang -> 0.02
  | Slow -> 0.05
  | _ -> 1.0

type clause = { site : site; kind : kind; rate : float; magnitude : float }
type t = { seed : int; clauses : clause list }

let empty = { seed = 1; clauses = [] }
let is_empty p = p.clauses = []

let site_rank = function
  | Measure -> 0 | Cache -> 1 | Pool -> 2 | Sanitize -> 3 | Serve -> 4
let kind_rank = function
  | Nan -> 0 | Inf -> 1 | Spike -> 2 | Corrupt -> 3 | Hang -> 4 | Crash -> 5
  | Poison -> 6 | Drop -> 7 | Slow -> 8 | Reject -> 9

(* Canonical form: clauses sorted by (site, kind), one clause per pair
   (the last one parsed wins).  [to_string] of a parsed spec reparses to
   the same plan, and the canonical string is usable as a cache-key
   component. *)
let normalize p =
  let sorted =
    List.stable_sort
      (fun a b ->
        compare (site_rank a.site, kind_rank a.kind)
          (site_rank b.site, kind_rank b.kind))
      p.clauses
  in
  (* [parse] prepends clauses, so among duplicates the later-parsed one
     sorts first (the sort is stable): keeping the first of each group
     makes the later clause win. *)
  let rec dedup = function
    | [] -> []
    | a :: rest ->
        a
        :: dedup
             (List.filter
                (fun b -> not (b.site = a.site && b.kind = a.kind))
                rest)
  in
  { p with clauses = dedup sorted }

(* [%.15g] when that parses back to [x], else [%.17g]: on-grid rates such
   as 0.05 print as typed, and plans that differ in any digit never share
   a spec string (it is a sample-cache key component). *)
let number x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let to_string p =
  if is_empty p then Printf.sprintf "seed=%d" p.seed
  else
    String.concat ";"
      (Printf.sprintf "seed=%d" p.seed
      :: List.map
           (fun c ->
             Printf.sprintf "%s.%s=%s@%s" (site_to_string c.site)
               (kind_to_string c.kind) (number c.rate) (number c.magnitude))
           (normalize p).clauses)

let parse s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parse_clause acc part =
    match acc with
    | Error _ -> acc
    | Ok plan -> (
        match String.index_opt part '=' with
        | None -> err "clause %S: expected KEY=VALUE" part
        | Some eq -> (
            let key = String.sub part 0 eq in
            let value = String.sub part (eq + 1) (String.length part - eq - 1) in
            if String.equal key "seed" then
              match int_of_string_opt value with
              | Some seed -> Ok { plan with seed }
              | None -> err "seed=%S: not an integer" value
            else
              match String.index_opt key '.' with
              | None -> err "clause %S: expected SITE.KIND=RATE[@MAG]" part
              | Some dot -> (
                  let site_s = String.sub key 0 dot in
                  let kind_s =
                    String.sub key (dot + 1) (String.length key - dot - 1)
                  in
                  match (site_of_string site_s, kind_of_string kind_s) with
                  | None, _ ->
                      err
                        "clause %S: unknown site %S \
                         (measure|cache|pool|sanitize|serve)"
                        part site_s
                  | _, None ->
                      err
                        "clause %S: unknown kind %S \
                         (nan|inf|spike|corrupt|hang|crash|poison|drop|slow|\
                         reject)"
                        part kind_s
                  | Some site, Some kind -> (
                      if not (valid_pair site kind) then
                        err "clause %S: %s faults cannot be injected at the %s site"
                          part (kind_to_string kind) (site_to_string site)
                      else
                        let rate_s, mag_s =
                          match String.index_opt value '@' with
                          | None -> (value, None)
                          | Some at ->
                              ( String.sub value 0 at,
                                Some
                                  (String.sub value (at + 1)
                                     (String.length value - at - 1)) )
                        in
                        match float_of_string_opt rate_s with
                        | None -> err "clause %S: rate %S is not a number" part rate_s
                        | Some rate when not (rate >= 0.0 && rate <= 1.0) ->
                            err "clause %S: rate %g out of [0, 1]" part rate
                        | Some rate -> (
                            match mag_s with
                            | None ->
                                Ok
                                  { plan with
                                    clauses =
                                      { site; kind; rate;
                                        magnitude = default_magnitude kind }
                                      :: plan.clauses }
                            | Some m -> (
                                match float_of_string_opt m with
                                | Some magnitude when magnitude > 0.0 ->
                                    Ok
                                      { plan with
                                        clauses =
                                          { site; kind; rate; magnitude }
                                          :: plan.clauses }
                                | Some magnitude ->
                                    err "clause %S: magnitude %g must be positive"
                                      part magnitude
                                | None ->
                                    err "clause %S: magnitude %S is not a number"
                                      part m))))))
  in
  let parts =
    String.split_on_char ';' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  Result.map normalize (List.fold_left parse_clause (Ok empty) parts)

(* --- decisions ------------------------------------------------------------

   One MD5 digest per decision, keyed on (seed, site, kind, key).  The
   first 48 bits become a uniform draw in [0, 1); injection happens when
   the draw falls under the clause's rate. *)

let u01 ~seed ~site ~kind ~key =
  let d =
    Digest.string
      (Printf.sprintf "vfault|%d|%s|%s|%s" seed (site_to_string site)
         (kind_to_string kind) key)
  in
  let v = ref 0.0 in
  (* 6 bytes = 48 bits of mantissa, plenty for rates down to 1e-9. *)
  for i = 0 to 5 do
    v := (!v *. 256.0) +. float_of_int (Char.code d.[i])
  done;
  !v /. (256.0 ** 6.0)

let find p ~site ~kind =
  List.find_opt (fun c -> c.site = site && c.kind = kind) p.clauses

let draw p ~site ~kind ~key =
  match find p ~site ~kind with
  | None -> None
  | Some c ->
      if c.rate > 0.0 && u01 ~seed:p.seed ~site ~kind ~key < c.rate then
        Some c.magnitude
      else None

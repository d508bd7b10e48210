(* The process-wide active fault plan and the injection entry points the
   Measure / Dataset-cache / Pool layers call.

   The active plan comes from the [VECMODEL_FAULTS] environment variable
   unless a caller (the CLI's [--faults], or the test runner pinning the
   suite deterministic) installs an override with [set_active].  Every
   positive decision is counted per (site, kind) so health reports can
   show what was actually injected. *)

exception Injected_crash of string

let env_var = "VECMODEL_FAULTS"
let env_warned = ref false

let env_plan () =
  match Sys.getenv_opt env_var with
  | None -> Plan.empty
  | Some s -> (
      match Plan.parse s with
      | Ok p -> p
      | Error e ->
          if not !env_warned then begin
            env_warned := true;
            Printf.eprintf
              "vecmodel: ignoring %s=%S: %s\n%!" env_var s e
          end;
          Plan.empty)

(* The override is read on every decision, so tests and the CLI can swap
   plans mid-process; an [Atomic] keeps the read race-free across
   domains. *)
let override : Plan.t option Atomic.t = Atomic.make None

let set_active p = Atomic.set override (Some p)

let active () =
  match Atomic.get override with Some p -> p | None -> env_plan ()

(* --- injection counters -------------------------------------------------- *)

let counts_tbl : (string, int) Hashtbl.t = Hashtbl.create 16
let counts_mutex = Mutex.create ()

let count site kind =
  let k =
    Plan.site_to_string site ^ "." ^ Plan.kind_to_string kind
  in
  Mutex.lock counts_mutex;
  Hashtbl.replace counts_tbl k
    (1 + Option.value ~default:0 (Hashtbl.find_opt counts_tbl k));
  Mutex.unlock counts_mutex

let counts () =
  Mutex.lock counts_mutex;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts_tbl [] in
  Mutex.unlock counts_mutex;
  List.sort compare l

let reset_counts () =
  Mutex.lock counts_mutex;
  Hashtbl.reset counts_tbl;
  Mutex.unlock counts_mutex

(* --- per-site entry points ------------------------------------------------ *)

let drawc p ~site ~kind ~key =
  match Plan.draw p ~site ~kind ~key with
  | Some m ->
      count site kind;
      Some m
  | None -> None

(* Measure site: corrupt one scalar measurement.  NaN and Inf stand in for
   a crashed or wedged timer read; a spike multiplies the value by the
   clause magnitude, standing in for a heavy-tailed interference outlier. *)
let measurement ~key v =
  let p = active () in
  if Plan.is_empty p then v
  else
    match drawc p ~site:Plan.Measure ~kind:Plan.Nan ~key with
    | Some _ -> Float.nan
    | None -> (
        match drawc p ~site:Plan.Measure ~kind:Plan.Inf ~key with
        | Some _ -> Float.infinity
        | None -> (
            match drawc p ~site:Plan.Measure ~kind:Plan.Spike ~key with
            | Some mag ->
                (* Two-sided: half the spikes inflate, half deflate, so a
                   robust fit cannot fix them with a global rescale. *)
                if Plan.u01 ~seed:p.Plan.seed ~site:Plan.Measure
                     ~kind:Plan.Spike ~key:(key ^ "#side") < 0.5
                then v *. mag
                else v /. mag
            | None -> v))

(* Dataset-cache site: pretend the stored entry failed its checksum. *)
let cache_corrupt ~key =
  let p = active () in
  (not (Plan.is_empty p))
  && drawc p ~site:Plan.Cache ~kind:Plan.Corrupt ~key <> None

(* Pool site: simulated worker-domain crash for this task. *)
let pool_crash ~key =
  let p = active () in
  (not (Plan.is_empty p))
  && drawc p ~site:Plan.Pool ~kind:Plan.Crash ~key <> None

(* Pool site: simulated hang, in nominal seconds. *)
let pool_hang ~key =
  let p = active () in
  if Plan.is_empty p then None
  else drawc p ~site:Plan.Pool ~kind:Plan.Hang ~key

(* Sanitize site: whether to corrupt one shared master buffer after this
   measured run (the fault the shadow-state sanitizer must catch). *)
let sanitize_poison ~key =
  let p = active () in
  (not (Plan.is_empty p))
  && drawc p ~site:Plan.Sanitize ~kind:Plan.Poison ~key <> None

(* Serve site: whether this stage attempt's work is lost (the serving
   engine retries, then answers with an explicit error — never silence). *)
let serve_drop ~key =
  let p = active () in
  (not (Plan.is_empty p))
  && drawc p ~site:Plan.Serve ~kind:Plan.Drop ~key <> None

(* Serve site: added virtual service seconds for this stage, if armed —
   what pushes a request over its cooperative deadline. *)
let serve_slow ~key =
  let p = active () in
  if Plan.is_empty p then None
  else drawc p ~site:Plan.Serve ~kind:Plan.Slow ~key

(* Serve site: spurious admission rejection — the client must see an
   explicit overload answer, not a hang. *)
let serve_reject ~key =
  let p = active () in
  (not (Plan.is_empty p))
  && drawc p ~site:Plan.Serve ~kind:Plan.Reject ~key <> None

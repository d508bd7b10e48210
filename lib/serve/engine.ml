(* The serving engine.

   Transport-independent: the daemon feeds it decoded lines from a
   socket, the loadtest simulation calls [handle] directly, and both get
   identical behaviour because time is virtual — stages charge nominal
   virtual costs (plus injected [serve.slow] seconds) against the
   request's cooperative deadline, exactly like the pool's simulated
   hangs.  The invariant the chaos suite holds us to: every request gets
   exactly one explicit response — answered (possibly degraded or
   partial), or rejected with a typed error.  Nothing is silently lost.

   Pipeline order is decision-first: parse -> feature extraction ->
   prediction, then diagnostics (lint) with whatever budget remains.  A
   deadline that expires after the decision yields a partial response
   (the decision without diagnostics); before the decision, an explicit
   [E_deadline] rejection. *)

open Costmodel

type config = {
  features : Linmodel.feature_kind;
  machine : Vmachine.Descr.t;
  n : int;
  queue_limit : int;
  deadline_s : float;
  rate : float;
  burst : float;
  journal_path : string option;
  model_path : string option;
}

let default_config =
  {
    features = Linmodel.Cert;
    machine = Vmachine.Machines.neon_a57;
    n = Tsvc.Registry.default_n;
    queue_limit = 64;
    deadline_s = 0.02;
    rate = 200.0;
    burst = 50.0;
    journal_path = None;
    model_path = None;
  }

(* Nominal virtual stage costs, in seconds.  These price relative stage
   weight (analysis is the expensive tail), not wall time. *)
let parse_cost = 1e-4
let extract_cost = 1e-3
let predict_cost = 5e-4
let analyze_cost = 2e-3
let certify_cost = 3e-3

(* Lost-work retries per stage, beyond the first attempt. *)
let stage_retries = 2

(* Consecutive stage faults that open a breaker, and the requests it then
   stays open. *)
let breaker_threshold = 5
let breaker_cooldown = 8

(* Answered requests between journal checkpoints. *)
let journal_every = 32

type stats = {
  mutable received : int;
  mutable answered : int;
  mutable rejected_overload : int;
  mutable rejected_rate : int;
  mutable rejected_bad : int;
  mutable deadline_errors : int;
  mutable dropped : int;
  mutable partials : int;
  mutable degraded_baseline : int;
  mutable degraded_lint_skipped : int;
  mutable internal_errors : int;
}

let stats_to_list s =
  [ ("received", s.received); ("answered", s.answered);
    ("rejected_overload", s.rejected_overload);
    ("rejected_rate", s.rejected_rate); ("rejected_bad", s.rejected_bad);
    ("deadline_errors", s.deadline_errors); ("dropped", s.dropped);
    ("partials", s.partials); ("degraded_baseline", s.degraded_baseline);
    ("degraded_lint_skipped", s.degraded_lint_skipped);
    ("internal_errors", s.internal_errors) ]

type t = {
  cfg : config;
  slot : Modelslot.t;
  analyze_breaker : Breaker.t;
  extract_breaker : Breaker.t;
  predict_breaker : Breaker.t;
  buckets : Bucket.Family.t;
  lock : Mutex.t;
  st : stats;  (* counted in place under [lock], like the field below *)
  mutable since_checkpoint : int;
  journal : Checkpoint.Journal.t option;
  mutable resumed : bool;
  mutable startup_error : string option;
  memo : memo;
}

(* The analysis memo: what a request computes about its kernel, short of
   the prediction, keyed by the registry kernel's name and the vf.  A name
   identifies its kernel (requests resolve only through
   [Tsvc.Registry.find], whose entries are immutable), and the feature kind
   and n are fixed per engine.  Lint keys carry [Some vf] for a predict's
   diagnostics and [None] for the lint op's default VFs. *)
and memo = {
  vectors : (string * int, float array) Vpar.Memo.t;
  lints : (string * int option, int * int) Vpar.Memo.t;  (* errors, diags *)
  certs : (string * int, float * bool) Vpar.Memo.t;  (* safe_frac, guard_free *)
  baselines : (string * int, float option) Vpar.Memo.t;
}

let journal_key = "serve-stats"

let stats t = Mutex.protect t.lock (fun () -> { t.st with received = t.st.received })

let counts_json counts =
  Vjson.Obj (List.map (fun (k, v) -> (k, Vjson.Num (float_of_int v))) counts)

let stats_json s = counts_json (stats_to_list s)

let stats_of_json v =
  let get k = Option.value ~default:0 (Vjson.mem_int k v) in
  { received = get "received"; answered = get "answered";
    rejected_overload = get "rejected_overload";
    rejected_rate = get "rejected_rate"; rejected_bad = get "rejected_bad";
    deadline_errors = get "deadline_errors"; dropped = get "dropped";
    partials = get "partials"; degraded_baseline = get "degraded_baseline";
    degraded_lint_skipped = get "degraded_lint_skipped";
    internal_errors = get "internal_errors" }

(* Each memo table's counters, for the [stats] reply. *)
let memo_json m =
  let table name memo =
    let s = Vpar.Memo.stats memo in
    ( name,
      counts_json
        [ ("hits", s.hits); ("misses", s.misses); ("entries", s.entries) ] )
  in
  Vjson.Obj
    [ table "vectors" m.vectors; table "lints" m.lints; table "certs" m.certs;
      table "baselines" m.baselines ]

let checkpoint_locked t =
  match t.journal with
  | None -> ()
  | Some j ->
      t.since_checkpoint <- 0;
      let loaded = Modelslot.current t.slot in
      let payload =
        match stats_json t.st with
        | Vjson.Obj fields ->
            Vjson.Obj
              (fields
              @ [ ( "reloads",
                    Vjson.Num (float_of_int (Modelslot.reloads t.slot)) );
                  ( "reloads_rejected",
                    Vjson.Num (float_of_int (Modelslot.rejected t.slot)) );
                  ("model_digest", Vjson.Str loaded.Modelslot.digest);
                  ("model_origin", Vjson.Str loaded.Modelslot.origin);
                  ( "generation",
                    Vjson.Num (float_of_int loaded.Modelslot.generation) ) ])
        | v -> v
      in
      Checkpoint.Journal.record j journal_key (Vjson.to_string payload)

let checkpoint t =
  Mutex.lock t.lock;
  checkpoint_locked t;
  Mutex.unlock t.lock

let create cfg =
  let journal = Option.map Checkpoint.Journal.load cfg.journal_path in
  (* A missing journal entry, or one that does not parse, starts every
     counter at zero. *)
  let payload =
    Option.bind journal (fun j -> Checkpoint.Journal.find j journal_key)
  in
  let restored =
    Option.bind payload (fun p -> Result.to_option (Vjson.parse p))
  in
  let mk name =
    Breaker.create ~threshold:breaker_threshold ~cooldown:breaker_cooldown
      ~name ()
  in
  let t =
    {
      cfg;
      slot = Modelslot.create ~features:cfg.features ();
      analyze_breaker = mk "analyze";
      extract_breaker = mk "extract";
      predict_breaker = mk "predict";
      buckets = Bucket.Family.create ~rate:cfg.rate ~burst:cfg.burst;
      lock = Mutex.create ();
      st = stats_of_json (Option.value restored ~default:(Vjson.Obj []));
      since_checkpoint = 0;
      journal;
      resumed = restored <> None;
      startup_error = None;
      memo =
        { vectors = Vpar.Memo.create (); lints = Vpar.Memo.create ();
          certs = Vpar.Memo.create (); baselines = Vpar.Memo.create () };
    }
  in
  (match cfg.model_path with
  | None -> ()
  | Some path -> (
      match Modelslot.reload t.slot ~path with
      | Ok _ -> ()
      | Error e ->
          (* A bad initial model must not kill the daemon: serve the
             baseline and surface the rejection through health. *)
          t.startup_error <- Some (Modelslot.reload_error_to_string e)));
  t

let config t = t.cfg
let slot t = t.slot
let startup_error t = t.startup_error
let resumed t = t.resumed

(* --- stage runner ---------------------------------------------------------

   One stage execution: charge the nominal cost, add injected slowness,
   then run the work unless this attempt's result is injected as lost
   ([serve.drop]).  Lost attempts are retried; a stage whose every
   attempt is lost reports [`Dropped] and the request is answered with an
   explicit error.  Every faulted attempt (drop or exception) counts
   against the stage's breaker; a completed attempt resets it. *)

let run_stage ~breaker ~tick ~rq_id ~stage ~cost ~elapsed f =
  let rec attempt k =
    elapsed := !elapsed +. cost;
    let key = Printf.sprintf "%s|%s#%d" stage rq_id k in
    (match Vfault.Inject.serve_slow ~key with
    | Some extra -> elapsed := !elapsed +. extra
    | None -> ());
    if Vfault.Inject.serve_drop ~key then begin
      Breaker.failure breaker ~tick;
      if k < stage_retries then attempt (k + 1) else Error `Dropped
    end
    else
      match f () with
      | v ->
          Breaker.success breaker;
          Ok v
      | exception e ->
          Breaker.failure breaker ~tick;
          Error (`Failed (Printexc.to_string e))
  in
  attempt 0

(* --- the pipeline ---------------------------------------------------------- *)

let resolve_machine t = function
  | None -> Ok t.cfg.machine
  | Some name -> (
      match Vmachine.Machines.by_name name with
      | Some m -> Ok m
      | None -> Error name)

let resolve_kernel name =
  match Tsvc.Registry.find name with
  | Some e -> Ok e.Tsvc.Registry.kernel
  | None -> Error name

(* --- the analysis memo -----------------------------------------------------

   Lookups run inside the stages' work functions, below the fault draws,
   so drops, slowness, retries and breakers behave exactly as without the
   memo.  [Vpar.Memo] computes a miss outside its lock and publishes
   nothing when the computation raises, so a failing analysis keeps
   failing its stage. *)

let feature_vector t ~vf (k : Vir.Kernel.t) =
  Vpar.Memo.find_or_compute t.memo.vectors (k.name, vf) (fun () ->
      let a = Feature.analyze ~n:t.cfg.n ~vf k in
      Lazy.force
        (match t.cfg.features with
        | Raw -> a.raw
        | Rated -> a.rated
        | Extended -> a.extended
        | Absint -> a.absint
        | Opt -> a.opt
        | Deps -> a.deps
        | Cert -> a.cert))

let lint_counts t ?vf (k : Vir.Kernel.t) =
  Vpar.Memo.find_or_compute t.memo.lints (k.name, vf) (fun () ->
      let report =
        Vanalysis.Driver.lint_kernel ?vfs:(Option.map (fun v -> [ v ]) vf) k
      in
      ( Vanalysis.Driver.error_count report,
        List.length (Vanalysis.Driver.report_diags report) ))

let cert_summary t ~vf (k : Vir.Kernel.t) =
  Vpar.Memo.find_or_compute t.memo.certs (k.name, vf) (fun () ->
      let c = Vanalysis.Cert.certify ~vf k in
      (Vanalysis.Cert.safe_frac c, c.Vanalysis.Cert.ct_guard_free))

let baseline_speedup t ~vf (k : Vir.Kernel.t) =
  Vpar.Memo.find_or_compute t.memo.baselines (k.name, vf) (fun () ->
      match Dataset.apply_transform Dataset.Llv ~vf k with
      | Some vk -> Some (Baseline.predicted_speedup vk)
      | None -> None)

(* The prediction decision: the fitted model when one is loaded, its
   stage breakers are closed and it produces a finite value; the static
   baseline otherwise, tagged so clients can see the degradation.  The
   deadline is checked between stages: a budget exhausted before the
   decision exists is [`Deadline] (the request is explicitly rejected),
   never a late answer. *)
let decide t ~tick ~rq_id ~vf ~budget ~elapsed kernel =
  let loaded = Modelslot.current t.slot in
  (* A kernel the transform cannot vectorize is an honest speedup-1
     answer, not a degradation: it is reported through the [vectorized]
     payload field rather than a degraded tag. *)
  let baseline tags =
    match baseline_speedup t ~vf kernel with
    | Some s -> Ok (Float.max 0.0 s, loaded, tags, true)
    | None -> Ok (1.0, loaded, tags, false)
  in
  match loaded.Modelslot.model with
  | None -> baseline []
  | Some model ->
      if
        not
          (Breaker.allow t.extract_breaker ~tick
          && Breaker.allow t.predict_breaker ~tick)
      then baseline [ "baseline-model" ]
      else
        let feats =
          run_stage ~breaker:t.extract_breaker ~tick ~rq_id ~stage:"extract"
            ~cost:extract_cost ~elapsed (fun () -> feature_vector t ~vf kernel)
        in
        match feats with
        | Error e -> Error e
        | Ok _ when !elapsed > budget -> Error `Deadline
        | Ok feats -> (
            let pred =
              run_stage ~breaker:t.predict_breaker ~tick ~rq_id ~stage:"predict"
                ~cost:predict_cost ~elapsed (fun () ->
                  let v = Linmodel.predict_vec model feats in
                  (* A poisoned or degenerate model is a stage fault: it
                     trips the predict breaker and this request falls back
                     to the baseline. *)
                  if not (Float.is_finite v) then
                    failwith "non-finite prediction"
                  else v)
            in
            match pred with
            | Ok v -> Ok (Float.max 0.0 v, loaded, [], true)
            | Error `Dropped -> Error `Dropped
            | Error (`Failed _) -> baseline [ "baseline-model" ])

let diag_fields (errors, diags) =
  [ ("lint_errors", Vjson.Num (float_of_int errors));
    ("lint_diags", Vjson.Num (float_of_int diags)) ]

let loaded_fields (l : Modelslot.loaded) =
  [ ("model", Vjson.Str l.digest); ("origin", Vjson.Str l.origin);
    ("generation", Vjson.Num (float_of_int l.generation)) ]

let breaker_states t =
  let tick = (stats t).received in
  List.map
    (fun b ->
      ( Breaker.name b,
        Breaker.state_to_string (Breaker.state b ~tick),
        Breaker.trips b ))
    [ t.analyze_breaker; t.extract_breaker; t.predict_breaker ]

let health_payload t =
  let s = stats t in
  let breakers = breaker_states t in
  let degraded_now =
    List.exists (fun (_, st, _) -> st <> "closed") breakers
    || t.startup_error <> None
  in
  let loaded = Modelslot.current t.slot in
  [ ("status", Vjson.Str (if degraded_now then "degraded" else "ok"));
    ("queue_limit", Vjson.Num (float_of_int t.cfg.queue_limit));
    ("deadline_s", Vjson.Num t.cfg.deadline_s);
    ("features", Vjson.Str (Linmodel.feature_kind_to_string t.cfg.features));
    ("machine", Vjson.Str t.cfg.machine.Vmachine.Descr.name);
    ( "breakers",
      Vjson.Obj
        (List.map
           (fun (name, st, trips) ->
             ( name,
               Vjson.Obj
                 [ ("state", Vjson.Str st);
                   ("trips", Vjson.Num (float_of_int trips)) ] ))
           breakers) );
    ("reloads", Vjson.Num (float_of_int (Modelslot.reloads t.slot)));
    ( "reloads_rejected",
      Vjson.Num (float_of_int (Modelslot.rejected t.slot)) );
    ("resumed", Vjson.Bool t.resumed);
    ("clients", Vjson.Num (float_of_int (Bucket.Family.clients t.buckets)));
    ( "startup_error",
      match t.startup_error with None -> Vjson.Null | Some m -> Vjson.Str m );
    ("stats", stats_json s) ]
  @ loaded_fields loaded

(* --- request handling ------------------------------------------------------ *)

type outcome =
  | O_answered
  | O_overload
  | O_rate
  | O_bad
  | O_deadline
  | O_dropped
  | O_internal

let record t outcome ~partial ~tags =
  Mutex.lock t.lock;
  let s = t.st in
  (match outcome with
  | O_answered ->
      t.since_checkpoint <- t.since_checkpoint + 1;
      s.answered <- s.answered + 1;
      s.partials <- s.partials + Bool.to_int partial;
      s.degraded_baseline <-
        s.degraded_baseline + Bool.to_int (List.mem "baseline-model" tags);
      s.degraded_lint_skipped <-
        s.degraded_lint_skipped + Bool.to_int (List.mem "lint-skipped" tags)
  | O_overload -> s.rejected_overload <- s.rejected_overload + 1
  | O_rate -> s.rejected_rate <- s.rejected_rate + 1
  | O_bad -> s.rejected_bad <- s.rejected_bad + 1
  | O_deadline -> s.deadline_errors <- s.deadline_errors + 1
  | O_dropped -> s.dropped <- s.dropped + 1
  | O_internal -> s.internal_errors <- s.internal_errors + 1);
  if t.journal <> None && t.since_checkpoint >= journal_every then
    checkpoint_locked t;
  Mutex.unlock t.lock

(* Count a received request; its count is the request's breaker tick. *)
let receive t =
  Mutex.lock t.lock;
  let tick = t.st.received + 1 in
  t.st.received <- tick;
  Mutex.unlock t.lock;
  tick

let handle t ?(now = 0.0) ?(queue_depth = 0) (req : Proto.request) =
  let id = req.Proto.rq_id in
  let elapsed = ref parse_cost in
  let tick = receive t in
  let finish outcome ~partial resp =
    record t outcome ~partial ~tags:resp.Proto.rs_degraded;
    (resp, !elapsed)
  in
  let reject outcome code msg =
    finish outcome ~partial:false (Proto.error ~id code msg)
  in
  let budget = t.cfg.deadline_s in
  let over () = !elapsed > budget in
  let client = if req.Proto.rq_client = "" then "local" else req.Proto.rq_client in
  let data_op =
    match req.Proto.rq_op with
    | Proto.Predict _ | Proto.Lint _ | Proto.Certify _ -> true
    | _ -> false
  in
  try
    (* Admission: injected spurious rejection, then the queue bound, then
       the client's token bucket.  Admin ops (health, stats, reload,
       shutdown) bypass admission so operators can always reach a
       struggling daemon. *)
    if data_op && Vfault.Inject.serve_reject ~key:(Printf.sprintf "reject|%s" id)
    then reject O_overload Proto.E_overload "injected admission rejection"
    else if data_op && queue_depth >= t.cfg.queue_limit then
      reject O_overload Proto.E_overload
        (Printf.sprintf "queue full (%d >= %d)" queue_depth t.cfg.queue_limit)
    else if data_op && not (Bucket.Family.admit t.buckets ~client ~now) then
      reject O_rate Proto.E_rate_limited
        (Printf.sprintf "client %s over rate %g/s" client t.cfg.rate)
    else
      match req.Proto.rq_op with
      | Proto.Health -> finish O_answered ~partial:false (Proto.ok ~id (health_payload t))
      | Proto.Stats ->
          finish O_answered ~partial:false
            (Proto.ok ~id
               (("stats", stats_json (stats t))
               :: ("memo", memo_json t.memo)
               :: ("injected", counts_json (Vfault.Inject.counts ()))
               :: loaded_fields (Modelslot.current t.slot)))
      | Proto.Shutdown ->
          checkpoint t;
          finish O_answered ~partial:false
            (Proto.ok ~id [ ("stopping", Vjson.Bool true) ])
      | Proto.Reload { path } -> (
          match Modelslot.reload t.slot ~path with
          | Ok loaded ->
              finish O_answered ~partial:false (Proto.ok ~id (loaded_fields loaded))
          | Error e ->
              (* The old model keeps serving; the rejection is explicit. *)
              finish O_answered ~partial:false
                (Proto.error ~id Proto.E_reload_failed
                   (Modelslot.reload_error_to_string e)))
      | Proto.Lint { kernel } -> (
          match resolve_kernel kernel with
          | Error name -> reject O_bad Proto.E_unknown_kernel name
          | Ok k -> (
              let r =
                run_stage ~breaker:t.analyze_breaker ~tick ~rq_id:id
                  ~stage:"analyze" ~cost:analyze_cost ~elapsed (fun () ->
                    lint_counts t k)
              in
              match r with
              | Ok counts ->
                  finish O_answered ~partial:false
                    (Proto.ok ~id
                       (("kernel", Vjson.Str kernel) :: diag_fields counts))
              | Error `Dropped ->
                  reject O_dropped Proto.E_dropped "lint work lost on every attempt"
              | Error (`Failed m) -> reject O_internal Proto.E_internal m))
      | Proto.Certify { kernel; vf } -> (
          match resolve_kernel kernel with
          | Error name -> reject O_bad Proto.E_unknown_kernel name
          | Ok k -> (
              let vf =
                match vf with
                | Some v -> v
                | None -> Vmachine.Descr.vf_for_kernel t.cfg.machine k
              in
              let r =
                run_stage ~breaker:t.analyze_breaker ~tick ~rq_id:id
                  ~stage:"certify" ~cost:certify_cost ~elapsed (fun () ->
                    cert_summary t ~vf k)
              in
              match r with
              | Ok (safe_frac, guard_free) ->
                  finish O_answered ~partial:false
                    (Proto.ok ~id
                       [ ("kernel", Vjson.Str kernel);
                         ("vf", Vjson.Num (float_of_int vf));
                         ("safe_frac", Vjson.Num safe_frac);
                         ("guard_free", Vjson.Bool guard_free) ])
              | Error `Dropped ->
                  reject O_dropped Proto.E_dropped
                    "certify work lost on every attempt"
              | Error (`Failed m) -> reject O_internal Proto.E_internal m))
      | Proto.Predict { kernel; machine; vf } -> (
          match resolve_machine t machine with
          | Error name -> reject O_bad Proto.E_unknown_machine name
          | Ok mach -> (
              match resolve_kernel kernel with
              | Error name -> reject O_bad Proto.E_unknown_kernel name
              | Ok k -> (
                  let vf =
                    match vf with
                    | Some v -> v
                    | None -> Vmachine.Descr.vf_for_kernel mach k
                  in
                  match decide t ~tick ~rq_id:id ~vf ~budget ~elapsed k with
                  | Error `Dropped ->
                      reject O_dropped Proto.E_dropped
                        "prediction work lost on every attempt"
                  | Error `Deadline ->
                      reject O_deadline Proto.E_deadline
                        (Printf.sprintf
                           "budget %.3fs exhausted before a decision" budget)
                  | Error (`Failed m) -> reject O_internal Proto.E_internal m
                  | Ok (speedup, loaded, tags, vectorized) ->
                        let base =
                          [ ("kernel", Vjson.Str kernel);
                            ("speedup", Vjson.Num speedup);
                            ("vf", Vjson.Num (float_of_int vf));
                            ("vectorized", Vjson.Bool vectorized) ]
                          @ loaded_fields loaded
                        in
                        (* Diagnostics run on the remaining budget: a
                           deadline that expired after the decision yields
                           a partial answer, an open analysis breaker the
                           lint-skipped fast path. *)
                        if over () then
                          finish O_answered ~partial:true
                            (Proto.ok ~id ~degraded:("no-diagnostics" :: tags) base)
                        else if not (Breaker.allow t.analyze_breaker ~tick) then
                          finish O_answered ~partial:false
                            (Proto.ok ~id ~degraded:("lint-skipped" :: tags) base)
                        else
                          let r =
                            run_stage ~breaker:t.analyze_breaker ~tick
                              ~rq_id:id ~stage:"analyze" ~cost:analyze_cost
                              ~elapsed (fun () -> lint_counts t ~vf k)
                          in
                          (match r with
                          | Ok counts when not (over ()) ->
                              finish O_answered ~partial:false
                                (Proto.ok ~id ~degraded:tags
                                   (base @ diag_fields counts))
                          | Ok _ ->
                              (* The lint finished but blew the budget:
                                 the decision still counts, diagnostics
                                 are withheld as stale-late. *)
                              finish O_answered ~partial:true
                                (Proto.ok ~id
                                   ~degraded:("no-diagnostics" :: tags) base)
                          | Error _ ->
                              (* Diagnostics lost or faulted: the decision
                                 is still good — answer without them. *)
                              finish O_answered ~partial:true
                                (Proto.ok ~id
                                   ~degraded:("no-diagnostics" :: tags) base)))))
  with e ->
    (* The last line of defence: no exception escapes the engine. *)
    reject O_internal Proto.E_internal (Printexc.to_string e)

let handle_line t ?now ?queue_depth ~client line =
  match Proto.request_of_line line with
  | Error (id, code, msg) ->
      ignore (receive t);
      record t O_bad ~partial:false ~tags:[];
      (Proto.response_to_line (Proto.error ~id code msg), false)
  | Ok req ->
      let req =
        if req.Proto.rq_client = "" then { req with Proto.rq_client = client }
        else req
      in
      let resp, _ = handle t ?now ?queue_depth req in
      ( Proto.response_to_line resp,
        match req.Proto.rq_op with Proto.Shutdown -> true | _ -> false )

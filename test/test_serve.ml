(* PR 10's serving tier: the wire protocol (total decoding, qcheck
   round-trips, malformed-input fuzzing), admission control (bounded
   queue, token buckets), the cooperative virtual deadline (partial
   answers after the decision, explicit rejection before it), per-stage
   circuit breakers with degraded answers, validated atomic hot reload
   (including reload under concurrent predicts), crash-only journal
   restart, and the deterministic loadtest simulation feeding the bench
   SERVE rows.

   Like test_fault.ml, every test that arms a fault plan restores the
   empty override before returning. *)

open Costmodel

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

let with_plan spec f =
  let plan =
    match Vfault.Plan.parse spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan %S: %s" spec e
  in
  Vfault.Inject.set_active plan;
  Fun.protect
    ~finally:(fun () ->
      Vfault.Inject.set_active Vfault.Plan.empty;
      Vfault.Inject.reset_counts ())
    f

let tmp_file suffix =
  Filename.temp_file "vserve_test" suffix

(* A real registry kernel name, not a guess. *)
let some_kernel =
  (List.hd Tsvc.Registry.all).Tsvc.Registry.kernel.Vir.Kernel.name

let predict ?(id = "t1") ?(client = "tests") ?vf kernel =
  { Vserve.Proto.rq_id = id; rq_client = client;
    rq_op = Vserve.Proto.Predict { kernel; machine = None; vf } }

(* A config with no journal, no model, and rate limiting off unless a
   test turns it on. *)
let base_config =
  { Vserve.Engine.default_config with rate = 0.0; journal_path = None }

(* A valid speedup model for the configured (Cert) feature set, written
   to a fresh checkpoint file.  [w0] differentiates digests. *)
let write_model ?(w0 = 0.05) ?(features = Linmodel.Cert)
    ?(target = Linmodel.Speedup) () =
  let weights = Array.make (Linmodel.dim_of features) 0.02 in
  weights.(0) <- w0;
  let m = { Linmodel.weights; method_ = Linmodel.L2; features; target } in
  let path = tmp_file ".model" in
  Linmodel.save m path;
  path

let payload_str resp key =
  match resp.Vserve.Proto.rs_result with
  | Ok fields -> Vjson.mem_str key (Vjson.Obj fields)
  | Error _ -> None

let code_of resp =
  match resp.Vserve.Proto.rs_result with
  | Ok _ -> None
  | Error (c, _) -> Some c

(* --- jsonv ----------------------------------------------------------------- *)

(* Integer-valued numbers only: the wire format prints floats with
   limited precision, which is fine for payloads but not for structural
   round-trip equality. *)
let jsonv_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [ return Vjson.Null;
            map (fun b -> Vjson.Bool b) bool;
            map (fun i -> Vjson.Num (float_of_int i)) (int_range (-1000000) 1000000);
            map (fun s -> Vjson.Str s) string_printable ]
      in
      if n <= 0 then leaf
      else
        frequency
          [ (3, leaf);
            ( 1,
              map (fun l -> Vjson.List l)
                (list_size (int_bound 4) (self (n / 2))) );
            ( 1,
              map (fun l -> Vjson.Obj l)
                (list_size (int_bound 4)
                   (pair string_printable (self (n / 2)))) ) ])

let prop_jsonv_roundtrip =
  QCheck.Test.make ~count:200 ~name:"jsonv to_string/parse round-trip"
    (QCheck.make jsonv_gen)
    (fun v ->
      match Vjson.parse (Vjson.to_string v) with
      | Ok v' -> v = v'
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let prop_jsonv_string_bytes =
  (* Arbitrary byte strings — control characters, quotes, backslashes,
     invalid UTF-8 — must survive escape/unescape exactly. *)
  QCheck.Test.make ~count:200 ~name:"jsonv string bytes round-trip"
    QCheck.string
    (fun s ->
      match Vjson.parse (Vjson.to_string (Vjson.Str s)) with
      | Ok (Vjson.Str s') -> s = s'
      | Ok _ -> false
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let test_jsonv_totality () =
  let bad =
    [ ""; "{"; "}"; "[1,2"; "{\"a\":}"; "nul"; "truex"; "1 2"; "\"\x01\"";
      "\"unterminated"; String.make 40 '[' ^ String.make 40 ']' ]
  in
  List.iter
    (fun s ->
      match Vjson.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error e -> check_bool "has message" true (String.length e > 0))
    bad;
  (* Non-finite numbers serialize to null rather than invalid JSON. *)
  check_string "nan is null" "null" (Vjson.to_string (Vjson.Num Float.nan))

(* --- protocol round-trips -------------------------------------------------- *)

let op_gen =
  let open QCheck.Gen in
  (* Kernel/machine/path names must be non-empty: the decoder rejects an
     empty name as a bad request, by design. *)
  let name = string_size ~gen:printable (int_range 1 16) in
  oneof
    [ map3
        (fun kernel machine vf ->
          Vserve.Proto.Predict { kernel; machine; vf })
        name (option name)
        (option (int_range 1 64));
      map (fun kernel -> Vserve.Proto.Lint { kernel }) name;
      map2 (fun kernel vf -> Vserve.Proto.Certify { kernel; vf }) name
        (option (int_range 1 64));
      return Vserve.Proto.Health;
      return Vserve.Proto.Stats;
      map (fun path -> Vserve.Proto.Reload { path }) name;
      return Vserve.Proto.Shutdown ]

let request_gen =
  let open QCheck.Gen in
  map3
    (fun rq_id rq_client rq_op -> { Vserve.Proto.rq_id; rq_client; rq_op })
    string string op_gen

(* Ids and client names are unbounded byte strings, so an escaped line can
   outgrow the decoder's line cap.  The property is total over both
   cases: a line within the cap decodes back to the request, and a line
   over it is rejected as a bad request, never decoded. *)
let prop_request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"proto request line round-trip"
    (QCheck.make request_gen)
    (fun r ->
      let line = Vserve.Proto.request_to_line r in
      let len = String.length line in
      match Vserve.Proto.request_of_line line with
      | Ok r' when len <= Vserve.Proto.max_line_bytes -> r = r'
      | Ok _ ->
          QCheck.Test.fail_reportf "%d-byte line over the %d-byte cap decoded"
            len Vserve.Proto.max_line_bytes
      | Error (_, Vserve.Proto.E_bad_request, _)
        when len > Vserve.Proto.max_line_bytes ->
          true
      | Error (_, _, m) ->
          QCheck.Test.fail_reportf "decode of a %d-byte line failed: %s" len m)

let response_gen =
  let open QCheck.Gen in
  let fields =
    list_size (int_bound 4)
      (pair string_printable
         (oneof
            [ map (fun s -> Vjson.Str s) string_printable;
              map (fun b -> Vjson.Bool b) bool ]))
  in
  let codes =
    [ Vserve.Proto.E_bad_request; E_unknown_kernel; E_unknown_machine;
      E_overload; E_rate_limited; E_deadline; E_dropped; E_reload_failed;
      E_internal ]
  in
  map3
    (fun rs_id rs_result rs_degraded ->
      { Vserve.Proto.rs_id; rs_result; rs_degraded })
    string
    (oneof
       [ map (fun f -> Ok f) fields;
         map2 (fun c m -> Error (c, m)) (oneofl codes) string_printable ])
    (list_size (int_bound 3) string_printable)

let prop_response_roundtrip =
  QCheck.Test.make ~count:300 ~name:"proto response line round-trip"
    (QCheck.make response_gen)
    (fun r ->
      match Vserve.Proto.response_of_line (Vserve.Proto.response_to_line r) with
      | Ok r' -> r = r'
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m)

(* --- malformed input never escapes as an exception ------------------------- *)

let handled_line engine line =
  let out, _shutdown = Vserve.Engine.handle_line engine ~client:"fuzz" line in
  match Vserve.Proto.response_of_line out with
  | Ok resp -> resp
  | Error m -> Alcotest.failf "engine emitted an unparsable line (%s): %S" m out

let test_malformed_lines () =
  let engine = Vserve.Engine.create base_config in
  let cases =
    [ ""; "{"; "not json at all"; "[1,2,3]"; "42"; "null";
      "{\"op\":\"predict\"}"; "{\"id\":\"x\"}";
      "{\"id\":\"x\",\"op\":\"no-such-op\"}";
      "{\"id\":\"x\",\"op\":\"predict\"}";
      "{\"id\":\"x\",\"op\":\"predict\",\"kernel\":7}";
      "{\"id\":\"x\",\"op\":\"predict\",\"kernel\":\"s000\",\"vf\":0}";
      "{\"id\":\"x\",\"op\":\"predict\",\"kernel\":\"s000\",\"vf\":1000}";
      "{\"id\":\"x\",\"op\":\"reload\"}";
      "{\"id\":\"truncated\",\"op\":\"predict\",\"ker";
      "\xff\xfe broken utf8 \xc3(";
      "{\"id\":\"\x01\x02\"}";
      String.make 50 '{' ]
  in
  List.iter
    (fun line ->
      let resp = handled_line engine line in
      match code_of resp with
      | Some Vserve.Proto.E_bad_request -> ()
      | Some c ->
          Alcotest.failf "%S: expected bad_request, got %s" line
            (Vserve.Proto.error_code_to_string c)
      | None -> Alcotest.failf "%S: expected a rejection, got ok" line)
    cases;
  let s = Vserve.Engine.stats engine in
  check_int "every malformed line counted" (List.length cases)
    s.Vserve.Engine.rejected_bad;
  check_int "and received" (List.length cases) s.Vserve.Engine.received

let prop_fuzz_never_raises =
  QCheck.Test.make ~count:300 ~name:"random bytes never crash handle_line"
    QCheck.(string_of_size (Gen.int_bound 200))
    (fun line ->
      (* A fresh engine per batch would be slow; the shared one is fine
         because handle_line never raises by contract. *)
      let resp = handled_line (Vserve.Engine.create base_config) line in
      String.length resp.Vserve.Proto.rs_id >= 0)

(* --- admission ------------------------------------------------------------- *)

let test_overload_admission () =
  let engine = Vserve.Engine.create base_config in
  let resp, _ =
    Vserve.Engine.handle engine
      ~queue_depth:base_config.Vserve.Engine.queue_limit
      (predict some_kernel)
  in
  check_bool "overload" true (code_of resp = Some Vserve.Proto.E_overload);
  (* Admin ops bypass admission: health must answer even with the queue
     full. *)
  let resp, _ =
    Vserve.Engine.handle engine
      ~queue_depth:(10 * base_config.Vserve.Engine.queue_limit)
      { Vserve.Proto.rq_id = "h"; rq_client = "ops"; rq_op = Vserve.Proto.Health }
  in
  check_bool "health bypasses admission" true
    (match resp.Vserve.Proto.rs_result with Ok _ -> true | Error _ -> false);
  let s = Vserve.Engine.stats engine in
  check_int "overload counted" 1 s.Vserve.Engine.rejected_overload

let test_rate_limit () =
  let engine =
    Vserve.Engine.create { base_config with rate = 1.0; burst = 1.0 }
  in
  let r1, _ = Vserve.Engine.handle engine ~now:0.0 (predict ~id:"a" some_kernel) in
  let r2, _ = Vserve.Engine.handle engine ~now:0.0 (predict ~id:"b" some_kernel) in
  check_bool "first admitted" true (code_of r1 <> Some Vserve.Proto.E_rate_limited);
  check_bool "second limited" true (code_of r2 = Some Vserve.Proto.E_rate_limited);
  (* One virtual second later the bucket has refilled one token. *)
  let r3, _ = Vserve.Engine.handle engine ~now:1.0 (predict ~id:"c" some_kernel) in
  check_bool "refilled" true (code_of r3 <> Some Vserve.Proto.E_rate_limited);
  (* Distinct clients have distinct buckets. *)
  let r4, _ =
    Vserve.Engine.handle engine ~now:0.0 (predict ~id:"d" ~client:"other" some_kernel)
  in
  check_bool "other client admitted" true
    (code_of r4 <> Some Vserve.Proto.E_rate_limited)

let test_bucket_family () =
  let b = Vserve.Bucket.create ~rate:10.0 ~burst:2.0 in
  check_bool "burst 1" true (Vserve.Bucket.admit b ~now:0.0);
  check_bool "burst 2" true (Vserve.Bucket.admit b ~now:0.0);
  check_bool "empty" false (Vserve.Bucket.admit b ~now:0.0);
  check_bool "refilled" true (Vserve.Bucket.admit b ~now:0.2);
  let off = Vserve.Bucket.create ~rate:0.0 ~burst:1.0 in
  for i = 0 to 99 do
    check_bool (Printf.sprintf "disabled %d" i) true
      (Vserve.Bucket.admit off ~now:0.0)
  done;
  (* The family cap: hostile client churn cannot balloon the table. *)
  let fam = Vserve.Bucket.Family.create ~rate:1.0 ~burst:1.0 in
  for i = 0 to 999 do
    ignore
      (Vserve.Bucket.Family.admit fam ~client:(Printf.sprintf "c%d" i) ~now:0.0)
  done;
  check_bool "client table bounded" true
    (Vserve.Bucket.Family.clients fam <= 256)

(* --- breakers -------------------------------------------------------------- *)

let test_breaker_lifecycle () =
  let b = Vserve.Breaker.create ~threshold:2 ~cooldown:3 ~name:"b" () in
  check_bool "starts closed" true (Vserve.Breaker.state b ~tick:0 = Vserve.Breaker.Closed);
  Vserve.Breaker.failure b ~tick:1;
  check_bool "one failure still closed" true
    (Vserve.Breaker.state b ~tick:1 = Vserve.Breaker.Closed);
  Vserve.Breaker.failure b ~tick:2;
  check_bool "threshold opens" true
    (Vserve.Breaker.state b ~tick:2 = Vserve.Breaker.Open);
  check_bool "open disallows" false (Vserve.Breaker.allow b ~tick:3);
  check_int "one trip" 1 (Vserve.Breaker.trips b);
  (* Cooldown elapses on the request counter: half-open probe. *)
  check_bool "half-open" true
    (Vserve.Breaker.state b ~tick:5 = Vserve.Breaker.Half_open);
  check_bool "probe allowed" true (Vserve.Breaker.allow b ~tick:5);
  Vserve.Breaker.failure b ~tick:5;
  check_bool "probe failure re-opens" true
    (Vserve.Breaker.state b ~tick:5 = Vserve.Breaker.Open);
  check_bool "re-open is not a new trip" true (Vserve.Breaker.trips b = 1);
  Vserve.Breaker.success b;
  check_bool "success closes" true
    (Vserve.Breaker.state b ~tick:9 = Vserve.Breaker.Closed)

(* A total drop plan: the first requests exhaust their stage retries and
   are answered with explicit [dropped]; the extract breaker then opens
   and later predicts degrade to the tagged baseline instead. *)
let test_breaker_degrades_to_baseline () =
  let path = write_model () in
  let engine =
    Vserve.Engine.create { base_config with model_path = Some path }
  in
  with_plan "seed=3;serve.drop=1" (fun () ->
      let codes = ref [] in
      let tags = ref [] in
      for i = 1 to 10 do
        let resp, _ =
          Vserve.Engine.handle engine (predict ~id:(Printf.sprintf "r%d" i) some_kernel)
        in
        codes := code_of resp :: !codes;
        tags := resp.Vserve.Proto.rs_degraded :: !tags
      done;
      let codes = List.rev !codes and tags = List.rev !tags in
      check_bool "first request dropped explicitly" true
        (List.hd codes = Some Vserve.Proto.E_dropped);
      (* Once the breaker is open the answers keep flowing, degraded.
         (The very last requests may hit the half-open probe and drop
         again — the mid-run ones are the steady open-breaker state.) *)
      check_bool "open breaker answers" true (List.nth codes 4 = None);
      check_bool "tagged baseline-model" true
        (List.mem "baseline-model" (List.nth tags 4));
      let s = Vserve.Engine.stats engine in
      check_bool "explicit drops counted" true (s.Vserve.Engine.dropped >= 1);
      check_bool "baseline degradations counted" true
        (s.Vserve.Engine.degraded_baseline >= 1);
      (* Every request got exactly one outcome. *)
      check_int "accounting" s.Vserve.Engine.received
        (s.Vserve.Engine.answered + s.rejected_overload + s.rejected_rate
        + s.rejected_bad + s.deadline_errors + s.dropped + s.internal_errors));
  Sys.remove path

(* --- the analysis memo ------------------------------------------------------ *)

(* A speedup model fitted on the registry at the engine's feature kind. *)
let fitted_model () =
  let cfg = base_config in
  let samples =
    Dataset.build ~machine:cfg.Vserve.Engine.machine ~transform:Dataset.Llv
      ~n:cfg.Vserve.Engine.n Tsvc.Registry.all
  in
  let path = tmp_file ".model" in
  Linmodel.save
    (Linmodel.fit ~method_:Linmodel.Nnls ~features:cfg.Vserve.Engine.features
       ~target:Linmodel.Speedup samples)
    path;
  path

(* Every registry kernel asked to predict, lint and certify, in turn; the
   second pass answers from the memo and must print the first pass's
   lines. *)
let test_memo_warm_equals_cold () =
  let path = fitted_model () in
  let engine =
    Vserve.Engine.create { base_config with model_path = Some path }
  in
  let pass () =
    List.concat_map
      (fun (e : Tsvc.Registry.entry) ->
        let kernel = e.kernel.Vir.Kernel.name in
        List.map
          (fun (op, rq_op) ->
            let resp, _ =
              Vserve.Engine.handle engine
                { Vserve.Proto.rq_id = op ^ "-" ^ kernel; rq_client = "tests"; rq_op }
            in
            check_bool (op ^ " " ^ kernel ^ " answered undegraded") true
              (code_of resp = None && resp.Vserve.Proto.rs_degraded = []);
            Vserve.Proto.response_to_line resp)
          [ ("predict", Vserve.Proto.Predict { kernel; machine = None; vf = None });
            ("lint", Vserve.Proto.Lint { kernel });
            ("certify", Vserve.Proto.Certify { kernel; vf = None }) ])
      Tsvc.Registry.all
  in
  let cold = pass () in
  let warm = pass () in
  Alcotest.(check (list string)) "warm lines equal cold lines" cold warm;
  check_bool "the fitted model answers" true
    (payload_str (fst (Vserve.Engine.handle engine (predict some_kernel))) "origin"
    = Some path);
  Sys.remove path

(* Memo hits sit below the fault draws: a warm key still drops, trips its
   breaker and runs late. *)
let test_memo_faults_on_warm_keys () =
  let path = write_model () in
  let engine =
    Vserve.Engine.create { base_config with model_path = Some path }
  in
  let warm, _ = Vserve.Engine.handle engine (predict ~id:"warm" "s000") in
  check_bool "warm-up answered undegraded" true
    (code_of warm = None && warm.Vserve.Proto.rs_degraded = []);
  with_plan "seed=3;serve.drop=1" (fun () ->
      let resps =
        List.init 3 (fun i ->
            fst
              (Vserve.Engine.handle engine
                 (predict ~id:(Printf.sprintf "d%d" i) "s000")))
      in
      check_bool "warm predict dropped" true
        (code_of (List.hd resps) = Some Vserve.Proto.E_dropped);
      (* Two dropped predicts are six lost extract attempts, past the
         threshold of five: the third predict finds the breaker open. *)
      let third = List.nth resps 2 in
      check_bool "open extract breaker serves the baseline" true
        (code_of third = None
        && List.mem "baseline-model" third.Vserve.Proto.rs_degraded));
  let plain = Vserve.Engine.create base_config in
  ignore (Vserve.Engine.handle plain (predict ~id:"warm" "s000"));
  with_plan "seed=5;serve.slow=1@0.05" (fun () ->
      let resp, _ = Vserve.Engine.handle plain (predict ~id:"slow" "s000") in
      check_bool "slow warm predict is a partial" true
        (code_of resp = None
        && List.mem "no-diagnostics" resp.Vserve.Proto.rs_degraded));
  Sys.remove path

(* One unseen key asked from several domains at once: every domain
   computes or finds the same answer, and none fails. *)
let test_memo_concurrent_cold_key () =
  let path = write_model () in
  let engine =
    Vserve.Engine.create { base_config with model_path = Some path }
  in
  let line = Vserve.Proto.request_to_line (predict ~id:"same" "s311") in
  let pool = Vpar.Pool.create ~size:2 in
  let lines =
    Fun.protect
      ~finally:(fun () -> Vpar.Pool.shutdown pool)
      (fun () ->
        Vpar.Pool.parallel_map ~pool ~chunk:1
          (fun _ -> fst (Vserve.Engine.handle_line engine ~client:"tests" line))
          (List.init 64 Fun.id))
  in
  check_int "64 answers" 64 (List.length lines);
  check_int "all equal" 1 (List.length (List.sort_uniq String.compare lines));
  (match Vserve.Proto.response_of_line (List.hd lines) with
  | Ok resp ->
      check_bool "answered by the model" true
        (code_of resp = None && resp.Vserve.Proto.rs_degraded = [])
  | Error m -> Alcotest.failf "unparsable answer: %s" m);
  check_int "no internal errors" 0
    (Vserve.Engine.stats engine).Vserve.Engine.internal_errors;
  Sys.remove path

(* The [stats] reply reports each memo table's counters: of two identical
   predicts on a baseline engine, the first misses the baseline and lint
   tables and the second hits them. *)
let test_memo_stats_reply () =
  let engine = Vserve.Engine.create base_config in
  ignore (Vserve.Engine.handle engine (predict ~id:"p1" "s000"));
  ignore (Vserve.Engine.handle engine (predict ~id:"p2" "s000"));
  let resp, _ =
    Vserve.Engine.handle engine
      { Vserve.Proto.rq_id = "s"; rq_client = "tests"; rq_op = Vserve.Proto.Stats }
  in
  let memo =
    match resp.Vserve.Proto.rs_result with
    | Ok fields -> Vjson.member "memo" (Vjson.Obj fields)
    | Error _ -> None
  in
  List.iter
    (fun table ->
      let count key =
        Option.bind (Option.bind memo (Vjson.member table)) (Vjson.mem_int key)
      in
      List.iter
        (fun key ->
          Alcotest.(check (option int)) (table ^ " " ^ key) (Some 1) (count key))
        [ "misses"; "hits"; "entries" ])
    [ "baselines"; "lints" ]

(* --- deadlines ------------------------------------------------------------- *)

let test_deadline_partial_and_reject () =
  let path = write_model () in
  (* Budget exhausted after the decision: partial answer, decision intact,
     diagnostics withheld.  Virtual stage costs: parse 1e-4, extract 1e-3,
     predict 5e-4, analyze 2e-3. *)
  let partial_engine =
    Vserve.Engine.create
      { base_config with model_path = Some path; deadline_s = 0.002 }
  in
  let resp, _ = Vserve.Engine.handle partial_engine (predict some_kernel) in
  check_bool "partial answered" true (code_of resp = None);
  check_bool "tagged no-diagnostics" true
    (List.mem "no-diagnostics" resp.Vserve.Proto.rs_degraded);
  check_bool "decision present" true (payload_str resp "model" <> None);
  let s = Vserve.Engine.stats partial_engine in
  check_int "partial counted" 1 s.Vserve.Engine.partials;
  (* Budget exhausted before the decision: explicit deadline rejection. *)
  let reject_engine =
    Vserve.Engine.create
      { base_config with model_path = Some path; deadline_s = 0.0005 }
  in
  let resp, _ = Vserve.Engine.handle reject_engine (predict some_kernel) in
  check_bool "deadline rejection" true (code_of resp = Some Vserve.Proto.E_deadline);
  let s = Vserve.Engine.stats reject_engine in
  check_int "deadline counted" 1 s.Vserve.Engine.deadline_errors;
  Sys.remove path

let test_injected_slowness_partial () =
  (* Without a fitted model the decision is instant; injected slowness on
     the analyze stage pushes past the budget after the decision. *)
  let engine = Vserve.Engine.create base_config in
  with_plan "seed=5;serve.slow=1@0.05" (fun () ->
      let resp, _ = Vserve.Engine.handle engine (predict some_kernel) in
      check_bool "slowness yields a partial" true
        (code_of resp = None
        && List.mem "no-diagnostics" resp.Vserve.Proto.rs_degraded))

(* --- model reload ---------------------------------------------------------- *)

let test_reload_validation () =
  let slot = Vserve.Modelslot.create ~features:Linmodel.Cert () in
  check_string "starts on baseline" "baseline"
    (Vserve.Modelslot.current slot).Vserve.Modelslot.digest;
  (* Missing file. *)
  (match Vserve.Modelslot.reload slot ~path:"/nonexistent/model" with
  | Error (Vserve.Modelslot.Re_read _) -> ()
  | _ -> Alcotest.fail "missing file must be Re_read");
  (* Corrupt file. *)
  let garbage = tmp_file ".model" in
  let oc = open_out garbage in
  output_string oc "not a model at all\n\x00\x01\x02";
  close_out oc;
  (match Vserve.Modelslot.reload slot ~path:garbage with
  | Error (Vserve.Modelslot.Re_parse _) -> ()
  | _ -> Alcotest.fail "garbage must be Re_parse");
  Sys.remove garbage;
  (* Truncated valid file. *)
  let good = write_model () in
  let full = In_channel.with_open_bin good In_channel.input_all in
  let truncated = tmp_file ".model" in
  let oc = open_out truncated in
  output_string oc (String.sub full 0 (String.length full / 2));
  close_out oc;
  (match Vserve.Modelslot.reload slot ~path:truncated with
  | Error (Vserve.Modelslot.Re_parse _) -> ()
  | _ -> Alcotest.fail "truncated must be Re_parse");
  Sys.remove truncated;
  (* Feature-schema mismatch: a Rated model cannot serve a Cert slot. *)
  let rated = write_model ~features:Linmodel.Rated () in
  (match Vserve.Modelslot.reload slot ~path:rated with
  | Error (Vserve.Modelslot.Re_incompatible mm) ->
      check_bool "expected kind" true (mm.Linmodel.mm_expected = Linmodel.Cert);
      check_bool "got kind" true (mm.Linmodel.mm_got = Linmodel.Rated);
      check_int "expected dim" (Linmodel.dim_of Linmodel.Cert)
        mm.Linmodel.mm_expected_dim;
      check_int "got dim" (Linmodel.dim_of Linmodel.Rated) mm.Linmodel.mm_got_dim
  | _ -> Alcotest.fail "schema mismatch must be Re_incompatible");
  Sys.remove rated;
  (* Cost-target models cannot serve speedup predictions. *)
  let cost = write_model ~target:Linmodel.Cost () in
  (match Vserve.Modelslot.reload slot ~path:cost with
  | Error (Vserve.Modelslot.Re_target _) -> ()
  | _ -> Alcotest.fail "cost target must be Re_target");
  Sys.remove cost;
  (* Through it all the slot never budged. *)
  let l = Vserve.Modelslot.current slot in
  check_string "still baseline" "baseline" l.Vserve.Modelslot.digest;
  check_int "generation untouched" 0 l.Vserve.Modelslot.generation;
  check_int "no successful reloads" 0 (Vserve.Modelslot.reloads slot);
  check_int "five rejections" 5 (Vserve.Modelslot.rejected slot);
  (* And a valid model finally lands. *)
  (match Vserve.Modelslot.reload slot ~path:good with
  | Ok l ->
      check_int "generation 1" 1 l.Vserve.Modelslot.generation;
      check_bool "digest changed" true (l.Vserve.Modelslot.digest <> "baseline")
  | Error e ->
      Alcotest.failf "valid model rejected: %s"
        (Vserve.Modelslot.reload_error_to_string e));
  Sys.remove good

let test_compat_typed_errors () =
  let m =
    { Linmodel.weights = Array.make (Linmodel.dim_of Linmodel.Cert) 0.1;
      method_ = Linmodel.L2; features = Linmodel.Cert;
      target = Linmodel.Speedup }
  in
  check_bool "compatible" true (Linmodel.compat ~features:Linmodel.Cert m = Ok ());
  (* Arity mismatch within the right kind — a hand-edited checkpoint. *)
  let short = { m with weights = Array.sub m.weights 0 2 } in
  (match Linmodel.compat ~features:Linmodel.Cert short with
  | Error mm ->
      check_int "got dim is the short arity" 2 mm.Linmodel.mm_got_dim;
      let msg = Linmodel.mismatch_to_string mm in
      check_bool "message nonempty" true (String.length msg > 0)
  | Ok () -> Alcotest.fail "short weights must not be compatible");
  (* predict_vec refuses arity mismatches and cost targets outright. *)
  (match Linmodel.predict_vec m (Array.make 2 1.0) with
  | _ -> Alcotest.fail "predict_vec must refuse short vectors"
  | exception Invalid_argument _ -> ());
  let cost = { m with target = Linmodel.Cost } in
  (match Linmodel.predict_vec cost (Array.make (Array.length m.weights) 1.0) with
  | _ -> Alcotest.fail "predict_vec must refuse cost targets"
  | exception Invalid_argument _ -> ());
  (* The strict parser rejects checkpoints with unknown weight rows. *)
  let good = write_model () in
  let full = In_channel.with_open_bin good In_channel.input_all in
  let evil = tmp_file ".model" in
  let oc = open_out evil in
  output_string oc (full ^ "w_plausible_but_unknown\t1.5\n");
  close_out oc;
  (match Linmodel.load evil with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown weight rows must be rejected");
  Sys.remove evil;
  Sys.remove good

let test_engine_reload_ops () =
  let engine = Vserve.Engine.create base_config in
  let reload path =
    fst
      (Vserve.Engine.handle engine
         { Vserve.Proto.rq_id = "rl"; rq_client = "ops";
           rq_op = Vserve.Proto.Reload { path } })
  in
  (* A bad reload is an explicit typed failure; the baseline serves on. *)
  let resp = reload "/nonexistent/model" in
  check_bool "reload failure typed" true
    (code_of resp = Some Vserve.Proto.E_reload_failed);
  let good = write_model () in
  let resp = reload good in
  check_bool "reload ok" true (code_of resp = None);
  let digest = (Vserve.Modelslot.current (Vserve.Engine.slot engine)).Vserve.Modelslot.digest in
  check_bool "model live" true (digest <> "baseline");
  (* Predictions are digest-tagged with the serving model. *)
  let resp, _ = Vserve.Engine.handle engine (predict some_kernel) in
  check_bool "response carries the digest" true
    (payload_str resp "model" = Some digest);
  Sys.remove good;
  (* Startup with a corrupt model serves the baseline and surfaces the
     rejection through health. *)
  let garbage = tmp_file ".model" in
  let oc = open_out garbage in
  output_string oc "garbage";
  close_out oc;
  let engine2 =
    Vserve.Engine.create { base_config with model_path = Some garbage }
  in
  check_bool "startup error surfaced" true
    (Vserve.Engine.startup_error engine2 <> None);
  let resp, _ = Vserve.Engine.handle engine2 (predict some_kernel) in
  check_bool "baseline serves" true (payload_str resp "model" = Some "baseline");
  Sys.remove garbage

(* Satellite 4: hot reload under load.  One domain flips the model
   between two checkpoints 50 times while predicts stream; every answer
   must be digest-tagged from exactly one of the two models (or the
   pre-reload initial model), and none may be dropped or mixed. *)
let test_reload_under_load () =
  let path_a = write_model ~w0:0.05 () in
  let path_b = write_model ~w0:0.07 () in
  let digest_of p =
    let slot = Vserve.Modelslot.create ~features:Linmodel.Cert () in
    match Vserve.Modelslot.reload slot ~path:p with
    | Ok l -> l.Vserve.Modelslot.digest
    | Error e -> Alcotest.failf "fixture model rejected: %s" (Vserve.Modelslot.reload_error_to_string e)
  in
  let da = digest_of path_a and db = digest_of path_b in
  check_bool "distinct fixture digests" true (da <> db);
  let engine =
    Vserve.Engine.create { base_config with model_path = Some path_a }
  in
  let reloader =
    Domain.spawn (fun () ->
        for i = 1 to 50 do
          let path = if i land 1 = 0 then path_a else path_b in
          let resp, _ =
            Vserve.Engine.handle engine
              { Vserve.Proto.rq_id = Printf.sprintf "reload%d" i;
                rq_client = "ops"; rq_op = Vserve.Proto.Reload { path } }
          in
          match code_of resp with
          | None -> ()
          | Some c ->
              Alcotest.failf "reload %d failed: %s" i
                (Vserve.Proto.error_code_to_string c)
        done)
  in
  let digests = Hashtbl.create 4 in
  let answered = ref 0 in
  for i = 1 to 200 do
    let resp, _ =
      Vserve.Engine.handle engine (predict ~id:(Printf.sprintf "p%d" i) some_kernel)
    in
    match resp.Vserve.Proto.rs_result with
    | Ok _ -> (
        incr answered;
        match payload_str resp "model" with
        | Some d -> Hashtbl.replace digests d ()
        | None -> Alcotest.failf "predict %d lost its digest tag" i)
    | Error (c, m) ->
        Alcotest.failf "predict %d rejected under reload: %s %s" i
          (Vserve.Proto.error_code_to_string c) m
  done;
  Domain.join reloader;
  check_int "every predict answered" 200 !answered;
  Hashtbl.iter
    (fun d () ->
      check_bool (Printf.sprintf "digest %s is a fixture model" d) true
        (d = da || d = db))
    digests;
  check_int "51 reloads landed" 51
    (Vserve.Modelslot.reloads (Vserve.Engine.slot engine));
  Sys.remove path_a;
  Sys.remove path_b

(* --- crash-only journal restart -------------------------------------------- *)

let test_journal_restart () =
  let journal = tmp_file ".journal" in
  Sys.remove journal;
  let cfg = { base_config with journal_path = Some journal } in
  let engine = Vserve.Engine.create cfg in
  check_bool "fresh start" false (Vserve.Engine.resumed engine);
  for i = 1 to 7 do
    ignore (Vserve.Engine.handle engine (predict ~id:(Printf.sprintf "j%d" i) some_kernel))
  done;
  Vserve.Engine.checkpoint engine;
  let s = Vserve.Engine.stats engine in
  (* A new engine over the same journal replays the counters — the
     kill -9 path, minus the kill. *)
  let engine2 = Vserve.Engine.create cfg in
  check_bool "resumed" true (Vserve.Engine.resumed engine2);
  let s2 = Vserve.Engine.stats engine2 in
  check_int "received restored" s.Vserve.Engine.received s2.Vserve.Engine.received;
  check_int "answered restored" s.Vserve.Engine.answered s2.Vserve.Engine.answered;
  (* A corrupted journal tail must not poison the restart: the checksummed
     journal drops the bad line and the engine still comes up. *)
  let oc = open_out_gen [ Open_append ] 0o644 journal in
  output_string oc "v1\tserve-stats\tdeadbeef\t{\"received\":999999}\n";
  close_out oc;
  let engine3 = Vserve.Engine.create cfg in
  let s3 = Vserve.Engine.stats engine3 in
  check_int "corrupt tail ignored" s.Vserve.Engine.received
    s3.Vserve.Engine.received;
  Sys.remove journal

(* --- the loadtest simulation ------------------------------------------------ *)

let test_sim_deterministic () =
  let run () =
    Vserve.Loadtest.run_sim ~seed:7 ~requests:150 ~servers:4
      ~arrival_rate:600.0 ~config:base_config ()
  in
  let a = run () and b = run () in
  check_string "same seed, same bytes"
    (Vjson.to_string (Vserve.Loadtest.result_to_json a))
    (Vjson.to_string (Vserve.Loadtest.result_to_json b));
  check_int "everything accounted" a.Vserve.Loadtest.lt_sent
    (a.Vserve.Loadtest.lt_answered + a.Vserve.Loadtest.lt_rejected);
  (match Vserve.Loadtest.gate a with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "clean gate failed: %s" (String.concat "; " ps));
  check_bool "clean run has no degraded answers" true
    (a.Vserve.Loadtest.lt_degraded = 0 && a.Vserve.Loadtest.lt_partials = 0);
  check_bool "clean run observed no injections" true
    (a.Vserve.Loadtest.lt_injected = [])

let test_sim_chaos_accounted () =
  with_plan
    "seed=11;serve.drop=0.02;serve.slow=0.08;serve.reject=0.02;pool.crash=0.01"
    (fun () ->
      let r =
        Vserve.Loadtest.run_sim ~seed:11 ~requests:300 ~servers:4
          ~arrival_rate:600.0 ~config:base_config ()
      in
      check_int "chaos: everything accounted" r.Vserve.Loadtest.lt_sent
        (r.Vserve.Loadtest.lt_answered + r.Vserve.Loadtest.lt_rejected);
      check_bool "chaos: faults actually fired" true
        (r.Vserve.Loadtest.lt_injected <> []);
      check_bool "chaos: degraded modes served" true
        (r.Vserve.Loadtest.lt_degraded + r.Vserve.Loadtest.lt_partials > 0);
      match Vserve.Loadtest.gate ~expect_degraded:true r with
      | Ok () -> ()
      | Error ps ->
          Alcotest.failf "chaos gate failed: %s" (String.concat "; " ps))

(* --- socket end-to-end ------------------------------------------------------ *)

(* [engine] served by an in-process daemon on a fresh Unix socket, from
   its own domain; [f] must end with a shutdown op. *)
let with_daemon engine f =
  let dir = Filename.temp_file "vserve_sock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "s" in
  let transport = Vserve.Server.Unix_path sock in
  let server = Domain.spawn (fun () -> Vserve.Server.run ~engine transport) in
  let rec wait_ready n =
    if Sys.file_exists sock then ()
    else if n = 0 then Alcotest.fail "daemon never bound its socket"
    else (Unix.sleepf 0.05; wait_ready (n - 1))
  in
  wait_ready 100;
  f sock transport;
  Domain.join server;
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let test_socket_end_to_end () =
  let engine = Vserve.Engine.create base_config in
  with_daemon engine @@ fun sock transport ->
  (* An oversized line is answered with a typed rejection, not a hang. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let oversized = String.make (Vserve.Proto.max_line_bytes + 10) 'x' ^ "\n" in
  ignore (Unix.write_substring fd oversized 0 (String.length oversized));
  let buf = Bytes.create 4096 in
  let n = Unix.read fd buf 0 4096 in
  let line = String.trim (Bytes.sub_string buf 0 n) in
  (match Vserve.Proto.response_of_line line with
  | Ok resp ->
      check_bool "oversized rejected" true
        (code_of resp = Some Vserve.Proto.E_bad_request)
  | Error m -> Alcotest.failf "unparsable oversized answer: %s" m);
  Unix.close fd;
  (* The loadtest client: every request answered, then clean shutdown. *)
  (match
     Vserve.Loadtest.run_socket ~requests:30 ~timeout_s:30.0 ~shutdown:true
       transport
   with
  | Ok r ->
      check_int "all accounted over the wire" r.Vserve.Loadtest.lt_sent
        (r.Vserve.Loadtest.lt_answered + r.Vserve.Loadtest.lt_rejected)
  | Error m -> Alcotest.failf "socket loadtest failed: %s" m);
  let s = Vserve.Engine.stats engine in
  check_bool "daemon accounting closed" true
    (s.Vserve.Engine.received
    = s.Vserve.Engine.answered + s.rejected_overload + s.rejected_rate
      + s.rejected_bad + s.deadline_errors + s.dropped + s.internal_errors)

(* The socket client reports the daemon's injections, read through its
   stats op, so [--expect-clean] can fail over a socket too. *)
let test_socket_reports_injections () =
  with_plan "seed=2;serve.slow=0.5@0.001" @@ fun () ->
  with_daemon (Vserve.Engine.create base_config) @@ fun _ transport ->
  match
    Vserve.Loadtest.run_socket ~requests:40 ~timeout_s:30.0 ~shutdown:true
      transport
  with
  | Ok r ->
      check_bool "serve.slow injections reported" true
        (List.mem_assoc "serve.slow" r.Vserve.Loadtest.lt_injected)
  | Error m -> Alcotest.failf "socket loadtest failed: %s" m

(* The socket client keeps at most the daemon's queue limit unanswered,
   so a stream far longer than the queue is served without one overload
   rejection (sent all at once, 120 requests against a queue of 4 are
   mostly shed). *)
let test_socket_within_queue_limit () =
  let engine = Vserve.Engine.create { base_config with queue_limit = 4 } in
  with_daemon engine @@ fun _ transport ->
  (match
     Vserve.Loadtest.run_socket ~requests:120 ~timeout_s:30.0 ~shutdown:true
       transport
   with
  | Ok r ->
      check_int "answered" 120 r.Vserve.Loadtest.lt_answered;
      check_int "no overload answers" 0 r.Vserve.Loadtest.lt_overload
  | Error m -> Alcotest.failf "socket loadtest failed: %s" m);
  check_int "daemon shed nothing" 0
    (Vserve.Engine.stats engine).Vserve.Engine.rejected_overload

let tests =
  [ Alcotest.test_case "jsonv totality" `Quick test_jsonv_totality;
    QCheck_alcotest.to_alcotest prop_jsonv_roundtrip;
    QCheck_alcotest.to_alcotest prop_jsonv_string_bytes;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_response_roundtrip;
    Alcotest.test_case "malformed lines" `Quick test_malformed_lines;
    QCheck_alcotest.to_alcotest prop_fuzz_never_raises;
    Alcotest.test_case "overload admission" `Quick test_overload_admission;
    Alcotest.test_case "rate limiting" `Quick test_rate_limit;
    Alcotest.test_case "token buckets" `Quick test_bucket_family;
    Alcotest.test_case "breaker lifecycle" `Quick test_breaker_lifecycle;
    Alcotest.test_case "breaker degrades to baseline" `Quick
      test_breaker_degrades_to_baseline;
    Alcotest.test_case "deadline partial and reject" `Quick
      test_deadline_partial_and_reject;
    Alcotest.test_case "injected slowness partial" `Quick
      test_injected_slowness_partial;
    Alcotest.test_case "memo warm equals cold" `Quick test_memo_warm_equals_cold;
    Alcotest.test_case "memo faults on warm keys" `Quick
      test_memo_faults_on_warm_keys;
    Alcotest.test_case "memo concurrent cold key" `Quick
      test_memo_concurrent_cold_key;
    Alcotest.test_case "memo counters in the stats reply" `Quick
      test_memo_stats_reply;
    Alcotest.test_case "reload validation" `Quick test_reload_validation;
    Alcotest.test_case "compat typed errors" `Quick test_compat_typed_errors;
    Alcotest.test_case "engine reload ops" `Quick test_engine_reload_ops;
    Alcotest.test_case "reload under load" `Quick test_reload_under_load;
    Alcotest.test_case "journal restart" `Quick test_journal_restart;
    Alcotest.test_case "sim deterministic" `Quick test_sim_deterministic;
    Alcotest.test_case "sim chaos accounted" `Quick test_sim_chaos_accounted;
    Alcotest.test_case "socket end-to-end" `Quick test_socket_end_to_end;
    Alcotest.test_case "socket stays within the queue limit" `Quick
      test_socket_within_queue_limit;
    Alcotest.test_case "socket reports injections" `Quick
      test_socket_reports_injections ]

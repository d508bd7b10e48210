(* Load testing the serving tier.

   The simulation mode is the deterministic half: virtual-time arrivals
   (seeded exponential interarrivals), a FIFO queue in front of a few
   virtual servers, and the engine's own virtual service times.  Every
   number it reports is a pure function of (seed, config, fault plan), so
   its results are byte-stable across worker counts, and CI can pin a
   seeded chaos run and assert its gate.

   The socket mode is the honest half: a real client against a real
   daemon, wall-clock latencies, and the zero-lost check done by matching
   response ids. *)

type result = {
  lt_sent : int;
  lt_answered : int;
  lt_rejected : int;
  lt_degraded : int;
  lt_partials : int;
  lt_dropped : int;
  lt_deadline : int;
  lt_overload : int;
  lt_p50 : float;
  lt_p99 : float;
  lt_qps : float;
  lt_makespan : float;
  lt_max_queue : int;
  lt_digests : string list;
  lt_injected : (string * int) list;
}

(* --- the request mix -------------------------------------------------------

   A fixed rotation over real TSVC kernels, mostly predicts with some
   lints and certifies mixed in, from four clients.  Pure in (seed, i). *)

let kernel_names =
  lazy
    (List.filteri (fun i _ -> i < 24) Tsvc.Registry.all
    |> List.map (fun e -> e.Tsvc.Registry.kernel.Vir.Kernel.name))

let nth_kernel i =
  let names = Lazy.force kernel_names in
  List.nth names (i mod List.length names)

let request_for i =
  let id = Printf.sprintf "r%05d" i in
  let client = Printf.sprintf "c%d" (i mod 4) in
  let op =
    if i mod 13 = 5 then Proto.Lint { kernel = nth_kernel i }
    else if i mod 17 = 7 then Proto.Certify { kernel = nth_kernel i; vf = None }
    else Proto.Predict { kernel = nth_kernel i; machine = None; vf = None }
  in
  { Proto.rq_id = id; rq_client = client; rq_op = op }

(* Seeded uniform draw, same digest construction as the fault plans. *)
let u01 ~seed key =
  let d = Digest.string (Printf.sprintf "loadtest|%d|%s" seed key) in
  let v = ref 0.0 in
  for i = 0 to 5 do
    v := (!v *. 256.0) +. float_of_int (Char.code d.[i])
  done;
  !v /. (256.0 ** 6.0)

let interarrival ~seed ~rate i =
  let u = Float.min (u01 ~seed (Printf.sprintf "arrival#%d" i)) 0.999999 in
  -.log (1.0 -. u) /. rate

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(int_of_float (Float.of_int (n - 1) *. p))

let is_injected_site (k, _) =
  String.length k > 5
  && (String.sub k 0 6 = "serve." || String.sub k 0 5 = "pool.")

let injected_delta before after =
  List.filter_map
    (fun (k, v) ->
      let v0 =
        Option.value ~default:0 (List.assoc_opt k before)
      in
      if v > v0 then Some (k, v - v0) else None)
    after
  |> List.filter is_injected_site

(* --- tallying --------------------------------------------------------------- *)

type tally = {
  mutable answered : int;
  mutable rejected : int;
  mutable degraded : int;
  mutable partials : int;
  mutable dropped : int;
  mutable deadline : int;
  mutable overload : int;
  mutable digests : string list;
  mutable sojourns : float list;
}

let tally_zero () =
  { answered = 0; rejected = 0; degraded = 0; partials = 0; dropped = 0;
    deadline = 0; overload = 0; digests = []; sojourns = [] }

let tally_response t (resp : Proto.response) ~sojourn =
  match resp.Proto.rs_result with
  | Ok payload ->
      t.answered <- t.answered + 1;
      t.sojourns <- sojourn :: t.sojourns;
      if resp.Proto.rs_degraded <> [] then t.degraded <- t.degraded + 1;
      if List.mem "no-diagnostics" resp.Proto.rs_degraded then
        t.partials <- t.partials + 1;
      (match List.assoc_opt "model" payload with
      | Some (Vjson.Str d) when not (List.mem d t.digests) ->
          t.digests <- d :: t.digests
      | _ -> ())
  | Error (code, _) -> (
      t.rejected <- t.rejected + 1;
      match code with
      | Proto.E_dropped -> t.dropped <- t.dropped + 1
      | Proto.E_deadline -> t.deadline <- t.deadline + 1
      | Proto.E_overload | Proto.E_rate_limited ->
          t.overload <- t.overload + 1
      | _ -> ())

let finish_result ~sent ~makespan ~max_queue ~injected t =
  let sorted = Array.of_list t.sojourns in
  Array.sort compare sorted;
  {
    lt_sent = sent;
    lt_answered = t.answered;
    lt_rejected = t.rejected;
    lt_degraded = t.degraded;
    lt_partials = t.partials;
    lt_dropped = t.dropped;
    lt_deadline = t.deadline;
    lt_overload = t.overload;
    lt_p50 = percentile sorted 0.5;
    lt_p99 = percentile sorted 0.99;
    lt_qps = (if makespan > 0.0 then float_of_int t.answered /. makespan else 0.0);
    lt_makespan = makespan;
    lt_max_queue = max_queue;
    lt_digests = List.sort compare t.digests;
    lt_injected = injected;
  }

(* --- simulation ------------------------------------------------------------- *)

let run_sim ?(seed = 42) ?(requests = 400) ?(servers = 2)
    ?(arrival_rate = 300.0) ~config () =
  let engine = Engine.create config in
  let tally = tally_zero () in
  let free_at = Array.make (max 1 servers) 0.0 in
  (* Completion times of requests still in the system, for queue depth. *)
  let in_system = ref [] in
  let max_queue = ref 0 in
  let before = Vfault.Inject.counts () in
  let now = ref 0.0 in
  let last_completion = ref 0.0 in
  let first_arrival = ref None in
  for i = 0 to requests - 1 do
    now := !now +. interarrival ~seed ~rate:arrival_rate i;
    let a = !now in
    if !first_arrival = None then first_arrival := Some a;
    in_system := List.filter (fun c -> c > a) !in_system;
    let depth = max 0 (List.length !in_system - Array.length free_at) in
    max_queue := max !max_queue depth;
    let resp, service =
      Engine.handle engine ~now:a ~queue_depth:depth (request_for i)
    in
    let completion =
      match resp.Proto.rs_result with
      | Error _ -> a (* rejections are immediate; no server occupancy *)
      | Ok _ ->
          (* Earliest-free virtual server, FIFO. *)
          let k = ref 0 in
          Array.iteri (fun j t -> if t < free_at.(!k) then k := j) free_at;
          let start = Float.max a free_at.(!k) in
          let c = start +. service in
          free_at.(!k) <- c;
          in_system := c :: !in_system;
          c
    in
    last_completion := Float.max !last_completion completion;
    tally_response tally resp ~sojourn:(completion -. a)
  done;
  Engine.checkpoint engine;
  let makespan =
    match !first_arrival with
    | Some f -> Float.max 0.0 (!last_completion -. f)
    | None -> 0.0
  in
  finish_result ~sent:requests ~makespan ~max_queue:!max_queue
    ~injected:(injected_delta before (Vfault.Inject.counts ()))
    tally

(* --- rendering -------------------------------------------------------------- *)

let result_to_json r =
  let counts = List.map (fun (k, v) -> (k, Vjson.Num (float_of_int v))) in
  Vjson.(
    Obj
      (counts
         [ ("sent", r.lt_sent); ("answered", r.lt_answered);
           ("rejected", r.lt_rejected); ("degraded", r.lt_degraded);
           ("partials", r.lt_partials); ("dropped", r.lt_dropped);
           ("deadline", r.lt_deadline); ("overload", r.lt_overload);
           ("max_queue", r.lt_max_queue) ]
      @ [ ("p50", Num r.lt_p50); ("p99", Num r.lt_p99); ("qps", Num r.lt_qps);
          ("makespan", Num r.lt_makespan);
          ("digests", List (List.map (fun d -> Str d) r.lt_digests));
          ("injected", Obj (counts r.lt_injected)) ]))

let result_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "sent %d  answered %d  rejected %d (accounted: %s)\n"
       r.lt_sent r.lt_answered r.lt_rejected
       (if r.lt_sent = r.lt_answered + r.lt_rejected then "yes" else "NO"));
  Buffer.add_string b
    (Printf.sprintf
       "  degraded %d  partial %d  dropped %d  deadline %d  overload/rate %d\n"
       r.lt_degraded r.lt_partials r.lt_dropped r.lt_deadline r.lt_overload);
  Buffer.add_string b
    (Printf.sprintf "  p50 %.6fs  p99 %.6fs  qps %.1f  makespan %.4fs  max queue %d\n"
       r.lt_p50 r.lt_p99 r.lt_qps r.lt_makespan r.lt_max_queue);
  (match r.lt_digests with
  | [] -> ()
  | ds ->
      Buffer.add_string b
        (Printf.sprintf "  models: %s\n" (String.concat ", " ds)));
  (match r.lt_injected with
  | [] -> ()
  | inj ->
      Buffer.add_string b
        (Printf.sprintf "  injected: %s\n"
           (String.concat ", "
              (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) inj))));
  Buffer.contents b

(* --- the gate --------------------------------------------------------------- *)

let gate ?(p99_bound = 0.5) ?(expect_degraded = false) r =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  if r.lt_sent <> r.lt_answered + r.lt_rejected then
    fail "%d of %d requests unaccounted for (answered %d + rejected %d)"
      (r.lt_sent - r.lt_answered - r.lt_rejected)
      r.lt_sent r.lt_answered r.lt_rejected;
  if r.lt_p99 > p99_bound then
    fail "p99 %.6fs over the %.6fs bound" r.lt_p99 p99_bound;
  if expect_degraded && r.lt_degraded + r.lt_partials = 0 then
    fail "no degraded-mode answers under the fault plan";
  match !problems with [] -> Ok () | ps -> Error (List.rev ps)

(* --- socket client ----------------------------------------------------------- *)

let connect = function
  | Server.Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Server.Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      fd

let run_socket ?(requests = 200) ?(timeout_s = 30.0) ?(shutdown = false)
    transport =
  match connect transport with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot connect to %s: %s"
               (Server.transport_to_string transport) (Unix.error_message e))
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.set_nonblock fd;
          let give_up = Unix.gettimeofday () +. timeout_s in
          let inbuf = Buffer.create 4096 in
          let closed = ref false in
          (* Write [lines], keeping at most [window] of them unanswered,
             and pass response lines to [on_line] until every line is
             answered, the daemon has closed the connection or [give_up]
             has passed.  [on_write] runs after every successful write,
             with the number of lines handed to the socket so far. *)
          let transfer ?(window = max_int) ?(on_write = ignore) lines on_line =
            let expect = Array.length lines in
            let out = ref "" and next = ref 0 and seen = ref 0 in
            let rec pump () =
              if !seen >= expect || !closed || Unix.gettimeofday () > give_up
              then ()
              else begin
                while !next < expect && !next - !seen < window do
                  out := !out ^ lines.(!next);
                  incr next
                done;
                let want_write = !out <> "" in
                match
                  Unix.select [ fd ] (if want_write then [ fd ] else []) [] 0.2
                with
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
                | rs, ws, _ ->
                    if ws <> [] && !out <> "" then begin
                      match
                        Unix.single_write_substring fd !out 0
                          (min 4096 (String.length !out))
                      with
                      | k ->
                          out := String.sub !out k (String.length !out - k);
                          on_write !next
                      | exception
                          Unix.Unix_error
                            ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
                    end;
                    if rs <> [] then begin
                      let buf = Bytes.create 4096 in
                      match Unix.read fd buf 0 4096 with
                      | 0 -> closed := true
                      | k ->
                          Buffer.add_subbytes inbuf buf 0 k;
                          let data = Buffer.contents inbuf in
                          Buffer.clear inbuf;
                          let rec go = function
                            | [] -> ()
                            | [ tail ] -> Buffer.add_string inbuf tail
                            | l :: ls ->
                                if l <> "" then begin
                                  incr seen;
                                  on_line l
                                end;
                                go ls
                          in
                          go (String.split_on_char '\n' data)
                      | exception
                          Unix.Unix_error
                            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                        -> ()
                    end;
                    pump ()
              end
            in
            pump ()
          in
          let line r = Proto.request_to_line r ^ "\n" in
          (* One admin op, alone on the connection: nothing of the stream
             runs beside it. *)
          let ask id op =
            let answer = ref None in
            transfer
              [| line { Proto.rq_id = id; rq_client = "loadtest"; rq_op = op } |]
              (fun l -> answer := Result.to_option (Proto.response_of_line l));
            match !answer with
            | Some { Proto.rs_result = Ok fields; _ } -> Some fields
            | _ -> None
          in
          (* The daemon's injection counters, from its stats answer. *)
          let injected id =
            match Option.map (List.assoc_opt "injected") (ask id Proto.Stats) with
            | Some (Some (Vjson.Obj counts)) ->
                Some
                  (List.filter_map
                     (fun (k, v) ->
                       match v with
                       | Vjson.Num x -> Some (k, int_of_float x)
                       | _ -> None)
                     counts)
            | _ -> None
          in
          (* The daemon rejects a request that finds [queue_limit] others
             waiting, so the stream keeps at most that many unanswered: the
             run measures service, not the shedding of a flood. *)
          let queue_limit =
            match
              Option.map (List.assoc_opt "queue_limit") (ask "health" Proto.Health)
            with
            | Some (Some (Vjson.Num x)) -> Some (max 1 (int_of_float x))
            | _ -> None
          in
          let before = injected "stats-before" in
          let tally = tally_zero () in
          let sent_at : (string, float) Hashtbl.t = Hashtbl.create 64 in
          let reqs = Array.init requests request_for in
          let t0 = Unix.gettimeofday () in
          let first_sent = ref nan in
          let last_answer = ref t0 in
          (* Conservative: stamp send time at the first write after a
             request joins the window — latencies then include local
             queueing, which only overestimates. *)
          let stamped = ref 0 in
          let on_write admitted =
            let now = Unix.gettimeofday () in
            if Float.is_nan !first_sent then first_sent := now;
            for i = !stamped to admitted - 1 do
              Hashtbl.replace sent_at reqs.(i).Proto.rq_id now
            done;
            stamped := admitted
          in
          transfer
            ?window:queue_limit ~on_write
            (Array.map line reqs)
            (fun l ->
              let now = Unix.gettimeofday () in
              last_answer := now;
              match Proto.response_of_line l with
              | Error _ -> tally.rejected <- tally.rejected + 1
              | Ok resp ->
                  let sojourn =
                    match Hashtbl.find_opt sent_at resp.Proto.rs_id with
                    | Some t -> now -. t
                    | None -> 0.0
                  in
                  tally_response tally resp ~sojourn);
          (* The after-stats and the shutdown go only once every data
             response is back: interleaved with the stream, the stats would
             miss injections still to come and the shutdown could stop the
             daemon with requests in flight. *)
          let after = injected "stats-after" in
          if shutdown then ignore (ask "shutdown" Proto.Shutdown);
          let makespan =
            if Float.is_nan !first_sent then 0.0 else !last_answer -. !first_sent
          in
          let sent = requests in
          let accounted = tally.answered + tally.rejected in
          match (queue_limit, before, after) with
          | None, _, _ -> Error "the daemon did not answer a health op"
          | _ when accounted < sent ->
              Error
                (Printf.sprintf "%d of %d requests lost (no response within %gs)"
                   (sent - accounted) sent timeout_s)
          | _, Some before, Some after ->
              Ok
                (finish_result ~sent ~makespan ~max_queue:0
                   ~injected:(injected_delta before after) tally)
          | _ -> Error "the daemon did not answer a stats op")

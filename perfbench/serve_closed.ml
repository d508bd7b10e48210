(* The serve-closed workload: a real `vecmodel serve` daemon on a Unix
   socket, driven closed loop by this single-threaded client over one
   connection with one request outstanding. *)

open Costmodel
module Proto = Vserve.Proto
module Jsonv = Vserve.Jsonv

let features = Vserve.Engine.default_config.Vserve.Engine.features
let machine = Vserve.Engine.default_config.Vserve.Engine.machine
let n = Vserve.Engine.default_config.Vserve.Engine.n
let kernels = Array.of_list Tsvc.Registry.kernels

(* --- the model and its in-process predictions ------------------------------ *)

(* Fit the served NNLS speedup model once per invocation, untimed, on the
   feature kind the engine serves by default, and save it for the daemon. *)
let fit_model path =
  let samples =
    Dataset.build ~seed:Build_cold.seed ~machine ~transform:Dataset.Llv ~n
      Tsvc.Registry.all
  in
  Linmodel.save
    (Linmodel.fit ~method_:Linmodel.Nnls ~features ~target:Linmodel.Speedup
       samples)
    path;
  match Linmodel.load path with
  | Ok m -> m
  | Error e -> failwith ("reloading the fitted model: " ^ e)

(* Feature extraction for the served kind, as the engine's extract stage
   computes it. *)
let extract ~vf k =
  match features with
  | Linmodel.Raw -> Feature.counts k
  | Linmodel.Rated -> Feature.rated k
  | Linmodel.Extended -> Feature.extended k
  | Linmodel.Absint -> Feature.absint ~n ~vf k
  | Linmodel.Opt -> Feature.opt ~n ~vf k
  | Linmodel.Deps -> Feature.deps ~n ~vf k
  | Linmodel.Cert -> Feature.cert ~n ~vf k

(* The speedup the daemon must answer for each kernel, as the wire prints it. *)
let expected_speedups model =
  Array.map
    (fun k ->
      let vf = Vmachine.Descr.vf_for_kernel machine k in
      Jsonv.to_string
        (Jsonv.Num (Float.max 0.0 (Linmodel.predict_vec model (extract ~vf k)))))
    kernels

(* --- the request stream ------------------------------------------------------

   Kernels drawn uniformly over the registry from the benchmark's seed; the
   op mix follows `Loadtest.request_for`: 1 in 13 lint, 1 in 17 certify,
   the rest predict. *)

(* Kernel indices as bytes: a long stream adds nothing for the client's GC
   to scan. *)
type stream = Bytes.t

let stream ~seed ~count : stream =
  let st = Random.State.make [| seed; 0x5e7e |] in
  Bytes.init count (fun _ -> Char.chr (Random.State.int st (Array.length kernels)))

let kernel_index (st : stream) i = Char.code (Bytes.get st i)

type kind = Predict | Lint | Certify

let kind_of i = if i mod 13 = 5 then Lint else if i mod 17 = 7 then Certify else Predict

let request st i =
  let kernel = kernels.(kernel_index st i).Vir.Kernel.name in
  { Proto.rq_id = Printf.sprintf "r%d" i;
    rq_client = Printf.sprintf "c%d" (i mod 2);
    rq_op =
      (match kind_of i with
      | Lint -> Proto.Lint { kernel }
      | Certify -> Proto.Certify { kernel; vf = None }
      | Predict -> Proto.Predict { kernel; machine = None; vf = None }) }

let line st i = Proto.request_to_line (request st i)

(* Share of the first [count] requests whose kernel already appeared. *)
let repeat_share st count =
  let seen = Array.make (Array.length kernels) false in
  let repeats = ref 0 in
  for i = 0 to count - 1 do
    let k = kernel_index st i in
    if seen.(k) then incr repeats else seen.(k) <- true
  done;
  float_of_int !repeats /. float_of_int (max 1 count)

(* The oracle: ok, undegraded, answering the request's id and kernel, and
   a predict's speedup equal to the in-process prediction. *)
let answer_ok ~expected st i resp_line =
  match Proto.response_of_line resp_line with
  | Error _ -> false
  | Ok r -> (
      let k = kernel_index st i in
      String.equal r.Proto.rs_id (Printf.sprintf "r%d" i)
      && r.Proto.rs_degraded = []
      &&
      match r.Proto.rs_result with
      | Error _ -> false
      | Ok fields -> (
          List.assoc_opt "kernel" fields
          = Some (Jsonv.Str kernels.(k).Vir.Kernel.name)
          &&
          match kind_of i with
          | Predict -> (
              match List.assoc_opt "speedup" fields with
              | Some (Jsonv.Num v) ->
                  String.equal (Jsonv.to_string (Jsonv.Num v)) expected.(k)
              | _ -> false)
          | Lint | Certify -> true))

(* --- socket plumbing -------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; inbuf : Buffer.t }

let rec connect ~deadline sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> { fd; inbuf = Buffer.create 4096 }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when Common.now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.0005;
      connect ~deadline sock

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let chunk = Bytes.create 65536

(* The next response line, reading as much as it takes. *)
let rec read_line c =
  let s = Buffer.contents c.inbuf in
  match String.index_opt s '\n' with
  | Some j ->
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf (String.sub s (j + 1) (String.length s - j - 1));
      String.sub s 0 j
  | None -> (
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | 0 -> failwith "serve-closed: daemon closed the connection"
      | k ->
          Buffer.add_subbytes c.inbuf chunk 0 k;
          read_line c)

let ask c line =
  write_all c.fd (line ^ "\n") 0;
  read_line c

(* --- the daemon ------------------------------------------------------------- *)

type daemon = { pid : int; sock : string }

let spawn_daemon ~vecmodel ~sock ~model =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process vecmodel
          [| vecmodel; "serve"; "--socket"; sock; "--model"; model;
             "--features"; Linmodel.feature_kind_to_string features |]
          null null Unix.stderr)
  in
  { pid; sock }

(* Set-up: from spawning the daemon to its first answered request with
   the model loaded. *)
let start_daemon ~vecmodel ~sock ~model =
  let t0 = Common.now () in
  let d = spawn_daemon ~vecmodel ~sock ~model in
  match
    let c = connect ~deadline:(t0 +. 60.0) sock in
    Fun.protect
      ~finally:(fun () -> Unix.close c.fd)
      (fun () ->
        let resp =
          ask c
            (Proto.request_to_line
               { Proto.rq_id = "setup"; rq_client = "setup";
                 rq_op = Proto.Predict { kernel = "s000"; machine = None; vf = None } })
        in
        let dt = Common.now () -. t0 in
        match Proto.response_of_line resp with
        | Ok { Proto.rs_result = Ok fields; _ }
          when List.assoc_opt "origin" fields = Some (Jsonv.Str model) ->
            dt
        | _ -> failwith ("serve-closed: set-up answer without the model: " ^ resp))
  with
  | dt -> (d, dt)
  | exception e ->
      Common.kill_and_wait d.pid;
      raise e

let stop_daemon d =
  match
    let c = connect ~deadline:(Common.now () +. 5.0) d.sock in
    ignore
      (ask c
         (Proto.request_to_line
            { Proto.rq_id = "stop"; rq_client = "stop"; rq_op = Proto.Shutdown }));
    Unix.close c.fd
  with
  | () -> ignore (Common.waitpid_retry d.pid)
  | exception _ -> Common.kill_and_wait d.pid

let with_daemon ~vecmodel ~sock ~model f =
  let d, setup = start_daemon ~vecmodel ~sock ~model in
  match f d setup with
  | v ->
      stop_daemon d;
      v
  | exception e ->
      Common.kill_and_wait d.pid;
      raise e

(* --- the closed loop ---------------------------------------------------------- *)

(* Requests [first], [first+1], ... one at a time over one connection,
   each sent when the previous answer is in, while [more index op_elapsed]
   holds and the stream lasts; [op_before] is the op time of earlier
   windows of the same run.  [on_answer i latency line] runs between an
   answer and the next send.  A set-up that falls due is taken between
   two requests with the op clock stopped.  Returns the next request index
   and this window's op time.

   One connection: the caller is a compiler pass that waits for each
   answer.  With two on 2 vCPUs the daemon batches request pairs through
   its worker pool and client, daemon and worker contend for the cores,
   which made throughput bimodal from run to run. *)
let closed_loop ?setups ?(first = 0) ?(op_before = 0.0) ~sock ~st ~more
    ~on_answer () =
  let c = connect ~deadline:(Common.now () +. 5.0) sock in
  let paused () = match setups with Some s -> s.Common.paused | None -> 0.0 in
  let t_start = Common.now () and paused0 = paused () in
  let window_elapsed () = Common.now () -. t_start -. (paused () -. paused0) in
  let op_elapsed () = op_before +. window_elapsed () in
  let next = ref first in
  while !next < Bytes.length st && more !next (op_elapsed ()) do
    (match setups with
    | Some s when Common.due s ~op_elapsed:(op_elapsed ()) -> Common.take s
    | _ -> ());
    let i = !next in
    let l = line st i ^ "\n" in
    let t0 = Common.now () in
    write_all c.fd l 0;
    let resp = read_line c in
    let t1 = Common.now () in
    Spans.record "serve.rtt" ~op:i ~t0 ~t1;
    incr next;
    on_answer i (t1 -. t0) resp
  done;
  let elapsed = window_elapsed () in
  Unix.close c.fd;
  (!next, elapsed)

(* --- runs ------------------------------------------------------------------- *)

type paths = { vecmodel : string; sock : string; model : string }

(* One set-up sample: a daemon started, asked once and stopped. *)
let daemon_setup paths () =
  with_daemon ~vecmodel:paths.vecmodel ~sock:(paths.sock ^ ".setup")
    ~model:paths.model (fun _ setup -> setup)

(* The run is split over [daemons] daemons in turn, each serving an equal
   share of the op time: a daemon's memory layout is drawn at its start,
   and one layout per run moved whole runs by up to 20%. *)
let daemons = 4

let run ~paths ~seed ~seconds ~setups =
  let model = fit_model paths.model in
  let expected = expected_speedups model in
  (* Room for 10^4 requests a second; the run stops early if it runs out. *)
  let st = stream ~seed ~count:(10_000 * (int_of_float seconds + 2)) in
  let latencies = Array.make (Bytes.length st) 0.0 in
  let setups = setups (daemon_setup paths) in
  let ok = ref 0 and sent = ref 0 and elapsed = ref 0.0 and peaks = ref [] in
  for k = 1 to daemons do
    let until = seconds *. float_of_int k /. float_of_int daemons in
    with_daemon ~vecmodel:paths.vecmodel ~sock:paths.sock ~model:paths.model
      (fun d _ ->
        let next, dt =
          closed_loop ~setups ~first:!sent ~op_before:!elapsed ~sock:paths.sock
            ~st
            ~more:(fun i op_elapsed -> op_elapsed < until || i < 11)
            ~on_answer:(fun i latency resp ->
              latencies.(i) <- latency;
              if answer_ok ~expected st i resp then incr ok)
            ()
        in
        sent := next;
        elapsed := !elapsed +. dt;
        peaks := Common.peak_rss_mb (Some d.pid) :: !peaks)
  done;
  let sent = !sent in
  let setup_s = Common.setup_median setups in
  let rss = Common.median (Array.of_list !peaks) in
  let latencies = Array.sub latencies 0 sent in
  { Common.attempted = sent;
    failed = sent - !ok;
    correct = !ok = sent;
    metrics =
      Common.end_to_end ~setup_s ~rss_mb:rss ~ok:!ok ~latencies
        ~elapsed:!elapsed;
    notes =
      [ Printf.sprintf
          "serve-closed: %d requests over one connection to each of %d \
           daemons in turn, closed loop; %.1f%% repeat a kernel already \
           requested; set-up median of %d daemon starts spread over the run; \
           peak RSS median over the serving daemons"
          sent daemons
          (100.0 *. repeat_share st sent)
          setups.Common.count;
        Common.tail_note latencies ] }

(* Traced run: a fixed window of requests to warm the daemon, the same
   requests untraced, then with a client round-trip span each; then the
   same lines replayed in-process through the engine's public calls and
   stage by stage. *)
let traced_requests = 3000

let tally responses =
  let answered = ref 0 and rejected = ref 0 and degraded = ref 0 and partials = ref 0 in
  Array.iter
    (fun line ->
      match Proto.response_of_line line with
      | Ok { Proto.rs_result = Ok _; rs_degraded; _ } ->
          incr answered;
          if rs_degraded <> [] then incr degraded;
          if List.mem "no-diagnostics" rs_degraded then incr partials
      | _ -> incr rejected)
    responses;
  (!answered, !rejected, !degraded, !partials)

let run_traced ~paths ~seed =
  let model = fit_model paths.model in
  let expected = expected_speedups model in
  let count = traced_requests in
  let st = stream ~seed ~count in
  (* Per request: round trip and response line; and the answers that
     passed the oracle. *)
  let window ~traced =
    Spans.enabled := traced;
    let rtt = Array.make count 0.0 and lines = Array.make count "" in
    let ok = ref 0 in
    ignore
      (closed_loop ~sock:paths.sock ~st
         ~more:(fun _ _ -> true)
         ~on_answer:(fun i latency resp ->
           rtt.(i) <- latency;
           lines.(i) <- resp;
           if answer_ok ~expected st i resp then incr ok)
         ());
    Spans.enabled := false;
    (rtt, lines, !ok)
  in
  let (rtt_off, _, ok_off), (rtt_on, lines_on, ok_on) =
    with_daemon ~vecmodel:paths.vecmodel ~sock:paths.sock ~model:paths.model
      (fun _ _ ->
        ignore (window ~traced:false);
        let off = window ~traced:false in
        let on = window ~traced:true in
        (off, on))
  in
  (* In-process replay of the traced window's lines. *)
  let engine =
    Vserve.Engine.create
      { Vserve.Engine.default_config with model_path = Some paths.model }
  in
  let vstep = 1.0 /. Vserve.Engine.default_config.Vserve.Engine.rate in
  let span = Spans.span in
  let gc0 = Layers.gc_mark () in
  let replayed_same = ref 0 in
  Spans.enabled := true;
  for i = 0 to count - 1 do
    Spans.set_op i;
    let l = line st i in
    let out =
      match span "serve.parse" (fun () -> Proto.request_of_line l) with
      | Error (id, code, msg) ->
          Proto.response_to_line (Proto.error ~id code msg)
      | Ok req ->
          let resp, _ =
            span "serve.engine" (fun () ->
                Vserve.Engine.handle engine ~now:(float_of_int i *. vstep) req)
          in
          span "serve.encode" (fun () -> Proto.response_to_line resp)
    in
    if String.equal out lines_on.(i) then incr replayed_same;
    let k = kernels.(kernel_index st i) in
    let vf = Vmachine.Descr.vf_for_kernel machine k in
    span "serve.stages" (fun () ->
        match kind_of i with
        | Predict ->
            let feats =
              span "core.extract" (fun () -> extract ~vf k)
            in
            ignore (span "core.predict" (fun () -> Linmodel.predict_vec model feats));
            ignore
              (span "analysis.lint" (fun () ->
                   Vanalysis.Driver.lint_kernel ~vfs:[ vf ] k))
        | Lint ->
            ignore (span "analysis.lint" (fun () -> Vanalysis.Driver.lint_kernel k))
        | Certify ->
            ignore (span "analysis.certify" (fun () -> Vanalysis.Cert.certify ~vf k)))
  done;
  Spans.enabled := false;
  let gc = Layers.gc_per_op gc0 ~ops:count in
  let spans = Spans.all () in
  let self = Spans.per_op_self_medians spans in
  let handled = Array.make count 0.0 in
  List.iter
    (fun ((s : Spans.span), self) ->
      if List.mem s.name [ "serve.parse"; "serve.engine"; "serve.encode" ] then
        handled.(s.op) <- handled.(s.op) +. self)
    (Spans.self_times spans);
  let transport =
    Common.median (Array.mapi (fun i rtt -> rtt -. handled.(i)) rtt_on)
  in
  let answered, rejected, degraded, partials = tally lines_on in
  let stats = Vserve.Engine.stats engine in
  let counts_agree =
    stats.Vserve.Engine.answered = answered
    && stats.Vserve.Engine.partials = partials
    && stats.Vserve.Engine.received - stats.Vserve.Engine.answered = rejected
  in
  let ms name = 1000.0 *. self name in
  let values =
    [ ("serve.parse_ms", ms "serve.parse"); ("serve.engine_ms", ms "serve.engine");
      ("serve.encode_ms", ms "serve.encode");
      ("serve.transport_ms", 1000.0 *. transport);
      ("analysis.lint_ms", ms "analysis.lint");
      ("analysis.certify_ms", ms "analysis.certify");
      ("core.extract_ms", ms "core.extract"); ("core.predict_ms", ms "core.predict");
      ("serve.answered", float_of_int answered);
      ("serve.rejected", float_of_int rejected);
      ("serve.degraded", float_of_int degraded);
      ("serve.partials", float_of_int partials);
      ( "trace.overhead_ms",
        1000.0 *. (Common.median rtt_on -. Common.median rtt_off) ) ]
    @ gc
  in
  let faithful = !replayed_same = count in
  let correct = faithful && counts_agree && ok_on = count && ok_off = count in
  ( { Common.attempted = 2 * count;
      failed = (2 * count) - ok_off - ok_on;
      correct;
      metrics = Layers.complete values;
      notes =
        [ Printf.sprintf
            "serve-closed traced: %d requests untraced p50 %.4f ms, traced p50 \
             %.4f ms; %d/%d replayed lines equal the daemon's; engine counters %s"
            count
            (1000.0 *. Common.median rtt_off)
            (1000.0 *. Common.median rtt_on)
            !replayed_same count
            (if counts_agree then "agree" else "DIFFER") ] },
    spans )

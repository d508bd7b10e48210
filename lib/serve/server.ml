(* The daemon transport: one select loop, no per-connection threads.

   Clients speak newline-delimited JSON.  Each loop iteration drains the
   readable sockets, decodes at most [max_batch] complete lines, fans the
   batch through [Vpar.Pool.supervised_map] (so injected worker crashes
   and hangs are retried, and a task that exhausts its budget is answered
   with an explicit [dropped] error), then queues the responses for
   writing.  Requests beyond the engine's queue limit are rejected at
   admission with [overload] — the queue is bounded, the client is told.

   Durability is crash-only: the engine checkpoints its counters to the
   serving journal periodically and on clean shutdown; a kill -9 between
   checkpoints loses only the tail counters, which the restart banner
   reports as "resumed". *)

type transport = Unix_path of string | Tcp of int

let transport_to_string = function
  | Unix_path p -> p
  | Tcp port -> Printf.sprintf "tcp:127.0.0.1:%d" port

type client = {
  fd : Unix.file_descr;
  name : string;
  inbuf : Buffer.t;
  mutable skipping : bool;  (* discarding the tail of an oversized line *)
  mutable out : Buffer.t;
  mutable closing : bool;  (* close once [out] drains *)
}

(* A slow consumer cannot balloon the daemon: past this backlog we drop
   the connection instead of buffering without bound. *)
let max_out_bytes = 1 lsl 20

let stop_requested = ref false

let install_signals () =
  let stop _ = stop_requested := true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop) with _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop) with _ -> ());
  (* A client vanishing mid-write must not kill the daemon. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ()

let listen_socket = function
  | Unix_path path ->
      (* A stale socket file from a crashed daemon would block the bind;
         crash-only restart means we always take the address over. *)
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      fd

(* Pull complete lines out of a client's input buffer, enforcing the
   protocol's line cap: an over-long line is answered with one
   [bad_request] marker (the empty pseudo-line ["\x00oversized"]) and its
   bytes are discarded until the next newline. *)
let drain_lines c =
  let data = Buffer.contents c.inbuf in
  Buffer.clear c.inbuf;
  let lines = ref [] in
  let start = ref 0 in
  let n = String.length data in
  for i = 0 to n - 1 do
    if data.[i] = '\n' then begin
      let line = String.sub data !start (i - !start) in
      start := i + 1;
      if c.skipping then c.skipping <- false
      else lines := line :: !lines
    end
  done;
  let rest = String.sub data !start (n - !start) in
  if c.skipping then ()
  else if String.length rest > Proto.max_line_bytes then begin
    (* Oversized without a newline yet: reject now, skip the tail. *)
    c.skipping <- true;
    lines := "\x00oversized" :: !lines
  end
  else Buffer.add_string c.inbuf rest;
  List.rev !lines

let enqueue_response c line =
  if Buffer.length c.out <= max_out_bytes then begin
    Buffer.add_string c.out line;
    Buffer.add_char c.out '\n'
  end
  else c.closing <- true

(* Recover a request id from a line we could not serve normally, so even
   a dropped request's rejection can be matched by the client. *)
let id_of_line line =
  match Proto.request_of_line line with
  | Ok r -> r.Proto.rq_id
  | Error (id, _, _) -> id

(* Parsed requests in flight per fan-out. *)
let max_batch = 64

let run ~engine transport =
  let cfg = Engine.config engine in
  install_signals ();
  stop_requested := false;
  let listen_fd = listen_socket transport in
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 16 in
  (* Decoded-but-unserved requests, FIFO across loop iterations.  Lines
     beyond [max_batch] wait here — they are never dropped — and lines
     beyond the queue limit are rejected explicitly at admission. *)
  let backlog : (client * string * float) Queue.t = Queue.create () in
  let shutdown_after_flush = ref false in
  (* The daemon's virtual clock: advanced per request at the configured
     token rate so a well-behaved client stream is never rate-limited by
     the wall clock it does not share. *)
  let vnow = ref 0.0 in
  let vstep = if cfg.Engine.rate > 0.0 then 1.0 /. cfg.Engine.rate else 1e-3 in
  let s = Engine.stats engine in
  Printf.printf "vecmodel serve: listening on %s (%s)\n%!"
    (transport_to_string transport)
    (if Engine.resumed engine then
       Printf.sprintf "journal resumed: %d received, %d answered"
         s.Engine.received s.Engine.answered
     else "journal fresh");
  (match Engine.startup_error engine with
  | Some m -> Printf.printf "vecmodel serve: model rejected: %s (serving baseline)\n%!" m
  | None -> ());
  let close_client c =
    Hashtbl.remove clients c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let accept_clients () =
    match Unix.accept ~cloexec:true listen_fd with
    | fd, addr ->
        Unix.set_nonblock fd;
        let name =
          match addr with
          | Unix.ADDR_UNIX _ -> Printf.sprintf "unix-%d" (Hashtbl.length clients)
          | Unix.ADDR_INET (a, p) ->
              Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
        in
        Hashtbl.replace clients fd
          { fd; name; inbuf = Buffer.create 256; skipping = false;
            out = Buffer.create 256; closing = false }
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
  in
  let read_client c =
    let buf = Bytes.create 4096 in
    match Unix.read c.fd buf 0 4096 with
    | 0 -> close_client c
    | k -> Buffer.add_subbytes c.inbuf buf 0 k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> close_client c
  in
  let write_client c =
    let data = Buffer.contents c.out in
    if data <> "" then begin
      match Unix.single_write_substring c.fd data 0 (String.length data) with
      | k ->
          Buffer.clear c.out;
          if k < String.length data then
            Buffer.add_substring c.out data k (String.length data - k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> close_client c
    end;
    if c.closing && Buffer.length c.out = 0 then close_client c
  in
  (* Serve one batch of decoded lines.  Position in the batch stands in
     for queue depth: arrivals past the engine's queue bound see a full
     queue and are rejected at admission. *)
  let serve_batch batch =
    let results =
      match batch with
      | [] -> []
      | [ (c, line, depth, now) ] ->
          [ (c, Engine.handle_line engine ~now ~queue_depth:depth
               ~client:c.name line) ]
      | _ ->
          let keys =
            Array.of_list
              (List.map (fun (_, line, _, _) -> id_of_line line) batch)
          in
          let outs =
            Vpar.Pool.supervised_map
              ~task_key:(fun i -> Printf.sprintf "serve|%s" keys.(i))
              (fun (c, line, depth, now) ->
                Engine.handle_line engine ~now ~queue_depth:depth
                  ~client:c.name line)
              batch
          in
          List.map2
            (fun (c, line, _, _) r ->
              match r with
              | Ok out -> (c, out)
              | Error (f : Vpar.Pool.failure) ->
                  (* The worker running this request was lost past its
                     retry budget: the client still gets an explicit
                     answer. *)
                  ( c,
                    ( Proto.response_to_line
                        (Proto.error ~id:(id_of_line line) Proto.E_dropped
                           (Printf.sprintf "serving worker lost (%s)"
                              f.Vpar.Pool.f_error)),
                      false ) ))
            batch outs
    in
    List.iter
      (fun (c, (line, shutdown)) ->
        enqueue_response c line;
        if shutdown then shutdown_after_flush := true)
      results
  in
  let rec loop () =
    if !stop_requested then ()
    else begin
      let rds =
        listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients []
      in
      let wrs =
        Hashtbl.fold
          (fun fd c acc -> if Buffer.length c.out > 0 || c.closing then fd :: acc else acc)
          clients []
      in
      (match Unix.select rds wrs [] 0.2 with
      | rs, ws, _ ->
          if List.mem listen_fd rs then accept_clients ();
          List.iter
            (fun fd ->
              if fd <> listen_fd then
                match Hashtbl.find_opt clients fd with
                | Some c -> read_client c
                | None -> ())
            rs;
          (* Decode new lines into the backlog; past the queue limit the
             request is rejected right here, explicitly. *)
          Hashtbl.iter
            (fun _ c ->
              List.iter
                (fun line ->
                  let line =
                    if line = "\x00oversized" then
                      String.make (Proto.max_line_bytes + 1) ' '
                    else line
                  in
                  let now = !vnow in
                  vnow := !vnow +. vstep;
                  if Queue.length backlog >= cfg.Engine.queue_limit then begin
                    let out, sd =
                      Engine.handle_line engine ~now
                        ~queue_depth:(Queue.length backlog) ~client:c.name
                        line
                    in
                    enqueue_response c out;
                    if sd then shutdown_after_flush := true
                  end
                  else Queue.add (c, line, now) backlog)
                (drain_lines c))
            clients;
          (* Serve up to max_batch backlogged requests, oldest first. *)
          let batch = ref [] in
          let count = ref 0 in
          while !count < max_batch && not (Queue.is_empty backlog) do
            let c, line, now = Queue.pop backlog in
            batch := (c, line, Queue.length backlog, now) :: !batch;
            incr count
          done;
          serve_batch (List.rev !batch);
          List.iter
            (fun fd ->
              match Hashtbl.find_opt clients fd with
              | Some c -> write_client c
              | None -> ())
            ws
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if !shutdown_after_flush then begin
        (* Push out whatever is pending, briefly, then stop. *)
        let deadline = Unix.gettimeofday () +. 1.0 in
        let rec flush () =
          let pending =
            Hashtbl.fold
              (fun fd c acc -> if Buffer.length c.out > 0 then (fd, c) :: acc else acc)
              clients []
          in
          if pending <> [] && Unix.gettimeofday () < deadline then begin
            (match Unix.select [] (List.map fst pending) [] 0.1 with
            | _, ws, _ ->
                List.iter
                  (fun fd ->
                    match Hashtbl.find_opt clients fd with
                    | Some c -> write_client c
                    | None -> ())
                  ws
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            flush ()
          end
        in
        flush ()
      end
      else loop ()
    end
  in
  loop ();
  Engine.checkpoint engine;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) clients;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match transport with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  let s = Engine.stats engine in
  Printf.printf "vecmodel serve: stopped (%d received, %d answered)\n%!"
    s.Engine.received s.Engine.answered

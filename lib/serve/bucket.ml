(* Token buckets over the serving tier's virtual clock.

   The serving tier models time cooperatively (virtual stage costs, like
   the pool's simulated hangs), so the bucket refills against the
   request's virtual arrival time rather than a wall clock: decisions are
   deterministic and byte-identical across worker counts. *)

type t = {
  rate : float;  (* tokens per virtual second; <= 0 disables limiting *)
  burst : float;
  mutable tokens : float;
  mutable last : float;  (* virtual time of the last refill *)
  lock : Mutex.t;
}

let create ~rate ~burst =
  { rate; burst = Float.max burst 1.0; tokens = Float.max burst 1.0;
    last = 0.0; lock = Mutex.create () }

let refill b ~now =
  if now > b.last then begin
    b.tokens <- Float.min b.burst (b.tokens +. ((now -. b.last) *. b.rate));
    b.last <- now
  end

let admit b ~now =
  if b.rate <= 0.0 then true
  else begin
    Mutex.lock b.lock;
    refill b ~now;
    let ok = b.tokens >= 1.0 in
    if ok then b.tokens <- b.tokens -. 1.0;
    Mutex.unlock b.lock;
    ok
  end

module Family = struct
  type bucket = t

  let mk_bucket = create

  type nonrec t = {
    rate : float;
    burst : float;
    table : (string, bucket) Hashtbl.t;
    overflow : bucket;  (* shared by clients beyond the tracking cap *)
    lock : Mutex.t;
  }

  let max_clients = 256

  let create ~rate ~burst =
    { rate; burst; table = Hashtbl.create 16;
      overflow = mk_bucket ~rate ~burst; lock = Mutex.create () }

  let bucket_for f client =
    Mutex.lock f.lock;
    let b =
      match Hashtbl.find_opt f.table client with
      | Some b -> b
      | None ->
          if Hashtbl.length f.table >= max_clients then f.overflow
          else begin
            let b = mk_bucket ~rate:f.rate ~burst:f.burst in
            Hashtbl.add f.table client b;
            b
          end
    in
    Mutex.unlock f.lock;
    b

  let admit f ~client ~now = admit (bucket_for f client) ~now

  let clients f =
    Mutex.lock f.lock;
    let n = Hashtbl.length f.table in
    Mutex.unlock f.lock;
    n
end

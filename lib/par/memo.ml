(* A memo table shared between domains: look up under the lock, compute a
   miss outside it, publish the finished value with [replace]. *)

type ('k, 'v) t = {
  table : ('k, 'v) Hashtbl.t;
  lock : Mutex.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

type stats = { hits : int; misses : int; entries : int }

let create () =
  { table = Hashtbl.create 64; lock = Mutex.create (); hits = Atomic.make 0;
    misses = Atomic.make 0 }

(* Every memo hit runs this lookup, so it locks by hand rather than
   allocating a closure for [Mutex.protect]; with plain-data keys
   [find_opt] cannot raise while the lock is held. *)
let find_or_compute t key compute =
  Mutex.lock t.lock;
  let found = Hashtbl.find_opt t.table key in
  Mutex.unlock t.lock;
  match found with
  | Some v ->
      Atomic.incr t.hits;
      v
  | None ->
      Atomic.incr t.misses;
      let v = compute () in
      Mutex.protect t.lock (fun () -> Hashtbl.replace t.table key v);
      v

let mem t key = Mutex.protect t.lock (fun () -> Hashtbl.mem t.table key)
let remove t key = Mutex.protect t.lock (fun () -> Hashtbl.remove t.table key)
let fold f t init = Mutex.protect t.lock (fun () -> Hashtbl.fold f t.table init)

let stats (t : (_, _) t) =
  { hits = Atomic.get t.hits; misses = Atomic.get t.misses;
    entries = Mutex.protect t.lock (fun () -> Hashtbl.length t.table) }

let clear (t : (_, _) t) =
  Mutex.protect t.lock (fun () -> Hashtbl.reset t.table);
  Atomic.set t.hits 0;
  Atomic.set t.misses 0

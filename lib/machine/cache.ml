(* Set-associative LRU caches and a small hierarchy, driven by element-level
   access traces.  This is the behavioural counterpart of the analytic
   [Memmodel]: the validation experiment replays kernels through it and
   checks that the analytic bottleneck-level choice matches the simulated
   miss behaviour. *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
}

(* [tags] and [age] are flat, indexed [set * ways + way].  A way's tag is
   the number of the line it holds (-1 when invalid); its age is an LRU
   stamp. *)
type t = {
  cfg : config;
  sets : int;
  tags : int array;
  age : int array;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let create cfg =
  if cfg.size_bytes <= 0 || cfg.ways <= 0 || cfg.line_bytes <= 0 then
    invalid_arg "Cache.create: non-positive parameter";
  let lines = cfg.size_bytes / cfg.line_bytes in
  if lines < cfg.ways || lines mod cfg.ways <> 0 then
    invalid_arg "Cache.create: size/ways/line mismatch";
  let sets = lines / cfg.ways in
  {
    cfg;
    sets;
    tags = Array.make (sets * cfg.ways) (-1);
    age = Array.make (sets * cfg.ways) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

let accesses t = t.accesses
let misses t = t.misses

(* Touch one byte address and report the flat index of the way that holds
   its line afterwards: [w] on a hit, [lnot w] (negative) on a miss.  Misses
   install the line over the first way holding the oldest stamp (invalid
   ways hold 0). *)
let access_way t addr =
  if addr < 0 then invalid_arg "Cache.access: negative address";
  t.clock <- t.clock + 1;
  t.accesses <- t.accesses + 1;
  let line = addr / t.cfg.line_bytes in
  let set = line mod t.sets in
  (* [line >= 0], so the set's ways [first, last] lie inside the arrays. *)
  let first = set * t.cfg.ways in
  let last = first + t.cfg.ways - 1 in
  let tags = t.tags and age = t.age in
  let w = ref first in
  while !w <= last && Array.unsafe_get tags !w <> line do
    incr w
  done;
  if !w <= last then begin
    Array.unsafe_set age !w t.clock;
    !w
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = ref first in
    for w = first + 1 to last do
      if Array.unsafe_get age w < Array.unsafe_get age !victim then victim := w
    done;
    Array.unsafe_set tags !victim line;
    Array.unsafe_set age !victim t.clock;
    lnot !victim
  end

let access t addr = access_way t addr >= 0

(* The hit [access_way] would report when [way] still holds [line]: the
   same clock, count and stamp, without the division or the way search.
   A line leaves its way only when its set installs another line there,
   which rewrites the tag checked here.  Invalid ways hold tag -1, which no
   line matches. *)
let rehit t ~way ~line =
  line >= 0
  && way >= 0
  && way < Array.length t.tags
  && Array.unsafe_get t.tags way = line
  && begin
       t.clock <- t.clock + 1;
       t.accesses <- t.accesses + 1;
       Array.unsafe_set t.age way t.clock;
       true
     end

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0

(* A non-inclusive two/three-level hierarchy: an access filters down until
   it hits. *)
type hierarchy = { levels : t list }

let hierarchy configs = { levels = List.map create configs }

(* Returns the 0-based index of the level that hit (length = memory).  The
   walk is a top-level function so that an access allocates nothing. *)
let rec first_hit i addr = function
  | [] -> i
  | c :: rest -> if access c addr then i else first_hit (i + 1) addr rest

let hierarchy_access h addr = first_hit 0 addr h.levels

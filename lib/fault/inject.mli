(** The process-wide active fault plan and the injection entry points
    called from the Measure, Dataset-cache and Pool layers.

    The active plan is the [VECMODEL_FAULTS] environment spec unless an
    override is installed with {!set_active} (the CLI's [--faults], or a
    test pinning its scope deterministic).  Every positive decision is
    counted per (site, kind). *)

(** Raised inside a task to simulate the death of the worker domain
    running it.  {!Vpar.Pool}'s supervised runner treats it as fatal to
    the worker and respawns a replacement; the task itself is retried. *)
exception Injected_crash of string

(** ["VECMODEL_FAULTS"]. *)
val env_var : string

(** The plan parsed from the environment ({!Plan.empty} when unset).  A
    malformed spec warns once on stderr and counts as empty. *)
val env_plan : unit -> Plan.t

(** Install an override plan ({!Plan.empty} disables all injection). *)
val set_active : Plan.t -> unit

(** The plan decisions are made against right now. *)
val active : unit -> Plan.t

(** Measure site: corrupt one scalar measurement under the active plan —
    NaN, infinity, or a two-sided spike (multiplied or divided by the
    clause magnitude).  Identity when nothing fires. *)
val measurement : key:string -> float -> float

(** Dataset-cache site: whether this cached entry reads back corrupted. *)
val cache_corrupt : key:string -> bool

(** Pool site: whether this task's worker domain crashes. *)
val pool_crash : key:string -> bool

(** Pool site: simulated hang duration in seconds, if armed. *)
val pool_hang : key:string -> float option

(** Sanitize site: whether to corrupt one shared master buffer after this
    measured run (caught by [Vexec.Sanitize]). *)
val sanitize_poison : key:string -> bool

(** Serve site: whether this serving-stage attempt's work is lost.  The
    engine retries the stage and, if every attempt is dropped, answers
    with an explicit error — a request is never silently lost. *)
val serve_drop : key:string -> bool

(** Serve site: added virtual service seconds for this stage, if armed
    (what pushes a request over its cooperative deadline). *)
val serve_slow : key:string -> float option

(** Serve site: spurious admission rejection for this request (served as
    an explicit overload answer). *)
val serve_reject : key:string -> bool

(** {2 Injection counters} *)

(** Injections so far as [("site.kind", count)], sorted. *)
val counts : unit -> (string * int) list

val reset_counts : unit -> unit

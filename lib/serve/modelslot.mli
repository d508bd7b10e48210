(** The served model: an atomically-swappable slot holding either the
    static baseline or a fitted {!Costmodel.Linmodel.t}, with validated
    hot reload.  A reload parses and checks the candidate completely
    before the swap — a corrupt, truncated or schema-incompatible
    checkpoint is rejected with a typed error and the old model keeps
    serving.  Every loaded model carries a content digest so responses
    can be attributed to exactly one model generation. *)

type loaded = {
  model : Costmodel.Linmodel.t option;  (** [None] = static baseline *)
  digest : string;  (** MD5 of the serialized model; ["baseline"] for none *)
  origin : string;  (** ["baseline"] or the checkpoint path *)
  generation : int;  (** 0 for the initial slot, +1 per successful reload *)
}

type reload_error =
  | Re_read of string  (** file missing or unreadable *)
  | Re_parse of string  (** not a valid model file (corrupt/truncated) *)
  | Re_incompatible of Costmodel.Linmodel.mismatch
      (** feature kind or column arity disagrees with the server's
          configured feature set *)
  | Re_target of string  (** cost-target models cannot serve predict_vec *)

val reload_error_to_string : reload_error -> string

type t

(** A slot serving the baseline until the first successful reload,
    validated against [features]. *)
val create : features:Costmodel.Linmodel.feature_kind -> unit -> t

(** The currently-served model (lock-free read). *)
val current : t -> loaded

(** Validate the checkpoint at [path] and atomically swap it in.  On
    [Error _] the slot is untouched. *)
val reload : t -> path:string -> (loaded, reload_error) result

(** Successful reloads so far. *)
val reloads : t -> int

(** Reloads rejected by validation. *)
val rejected : t -> int

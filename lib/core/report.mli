(** Text rendering of experiment results: tables and ASCII scatter plots.
    Printers write to stdout; [scatter] takes [?ppf] to capture. *)

type row = { label : string; eval : Metrics.eval }

type result = {
  id : string;
  title : string;
  machine : string;
  transform : string;
  n_samples : int;
  rows : row list;
  notes : string list;
}

val print : result -> unit

(** Render a result into a string. *)
val to_string : result -> string

(** ASCII scatter of [ys] against [xs] with the y = x diagonal drawn. *)
val scatter :
  ?ppf:Format.formatter -> ?width:int -> ?height:int -> xlabel:string ->
  ylabel:string -> float array -> float array -> unit

(** Summary table as CSV. *)
val to_csv : result -> string

(** Per-kernel scatter points as CSV. *)
val scatter_csv :
  names:string array -> measured:float array -> predicted:float array -> string

(** ASCII histogram of a sample: 12 bins, bars up to 40 columns. *)
val histogram : label:string -> float array -> unit

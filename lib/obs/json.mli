(** A minimal JSON tree with a printer and parser — the closed loop
    behind the JSONL telemetry trace, the metrics snapshot and the bench
    output files.  Everything {!to_string} produces, {!parse} reads
    back; surrogate-pair escapes and other exotica are out of scope. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact single-line rendering (no spaces, no trailing newline).
    Non-finite floats degrade to [null]. *)

val parse : string -> t
(** Raises {!Parse_error} with an offset on malformed input. *)

val find : t -> string -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_int : t -> int option
(** Also accepts integral floats. *)

val to_float : t -> float option
(** Also accepts ints. *)

val to_str : t -> string option
val to_bool : t -> bool option

(** {2 Typed field reads}

    The one set of readers for JSON this process did not write.  Each
    reads [key] of an object, and its [Error] names the key (["missing
    field \"k\""], ["field \"k\" is not an int"]).  [int] and [float]
    convert like {!to_int} and {!to_float}. *)

val field : t -> string -> (t, string) result
val int : t -> string -> (int, string) result
val float : t -> string -> (float, string) result
val string : t -> string -> (string, string) result
val bool : t -> string -> (bool, string) result
val list : t -> string -> (t list, string) result

val map_result :
  ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** [f] over a list, in order, stopping at the first [Error]. *)

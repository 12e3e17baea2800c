(** Runtime values of the guest machine.

    The modeling language is typed, so the interpreter could in principle
    work on raw integers; values stay tagged anyway so that type confusion
    inside the interpreter (or in hand-built programs that bypass the type
    checker) is caught immediately rather than silently exploring a
    meaningless state space. *)

type t =
  | Int of int
  | Bool of bool
  | Handle of int  (** heap address; [null] is [Handle (-1)] *)

val null : t
(** The null heap handle. *)

val zero : t

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val truthy : t -> bool
(** [Bool b] is [b]; [Int n] is [n <> 0]; handles are truthy iff non-null.
    Conditional jumps use this. *)

val as_int : t -> int
(** Raises [Invalid_argument] on non-[Int]. *)

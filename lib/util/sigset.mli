(** Mutable sets of 64-bit state signatures.

    The search records every state it reaches by signature, hundreds of
    thousands of them on a large run.  This set stores them unboxed:
    open addressing with linear probing over a flat buffer of 8-byte
    slots, which the garbage collector never scans.  Every [int64] is a
    legal member, [0L] included. *)

type t

val create : int -> t
(** An empty set with room for about [n] signatures before it first
    grows. *)

val mem : t -> int64 -> bool

val add : t -> int64 -> unit
(** Adding a member again does nothing. *)

val length : t -> int

val iter : (int64 -> unit) -> t -> unit
(** Each member once, in an order that depends on the set's history. *)

val reset : t -> unit
(** Empty the set and shrink it back to its size at {!create}. *)

(** Persistent vector clocks.

    A clock is an [int array] indexed by thread id, kept without trailing
    zeros: its length is one past the highest thread with a non-zero
    component, and every absent component reads as 0, so clocks over a
    growing thread population need no resizing up front.  Structural
    equality is clock equality.  An update that grows the clock, like any
    other update, copies the array; operations whose result equals an
    argument return that argument without allocating.

    Thread ids and components are non-negative. *)

type t

val empty : t

val get : t -> int -> int
(** [get c tid] is the component for [tid] (0 when absent). *)

val inc : t -> int -> t
(** Increment one component. *)

val set : t -> int -> int -> t
(** [set c tid n] replaces one component; setting it to 0 gives the clock
    that never had it.  Raises [Invalid_argument] on a negative [tid] or
    [n]. *)

val join : t -> t -> t
(** Pointwise maximum. *)

val leq : t -> t -> bool
(** Pointwise ordering: [leq a b] iff every component of [a] is [<=] the
    corresponding component of [b]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** The non-zero components, as [{tid:n, ...}] in increasing [tid]
    order. *)

(** Deterministic pseudo-random numbers (SplitMix64).

    The random-walk search strategy and the property-test generators must be
    reproducible from a seed independently of any global [Random] state, so
    the checker carries its own small generator. *)

type t

val create : int64 -> t
(** A generator seeded with the given value.  Equal seeds yield equal
    streams. *)

val next_int64 : t -> int64
(** Advances the generator and returns 64 fresh bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list.  Raises [Invalid_argument] on an
    empty list. *)

val split : t -> t
(** A new generator whose stream is independent of the parent's subsequent
    output. *)

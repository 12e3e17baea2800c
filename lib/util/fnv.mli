(** 64-bit FNV-1a hashing.

    Used throughout the checker to fingerprint program states,
    happens-before signatures, schedules and bug witnesses.  FNV-1a is
    chosen because it is trivially incremental: a hash value can be
    extended byte by byte, so a producer can hash its bytes as it emits
    them instead of first building the string.  The machine's
    [State.signature] streams a state's canonical bytes into an {!acc}
    that way.  Every function here extends a hash through the same byte
    update. *)

type t = int64

val basis : t
(** The FNV-1a 64-bit offset basis. *)

val string : t -> string -> t
(** [string h s] extends [h] with the bytes of [s]. *)

val int : t -> int -> t
(** [int h n] extends [h] with the 8 little-endian bytes of [n]. *)

val int64 : t -> int64 -> t
(** [int64 h n] extends [h] with the 8 little-endian bytes of [n]. *)

val char : t -> char -> t
(** [char h c] extends [h] with the single byte [c]. *)

val hash_string : string -> t
(** [hash_string s] is [string basis s]. *)

val combine_commutative : t -> t -> t
(** Order-insensitive combination of two hashes (wrapping addition).
    Used where a set of sub-hashes must hash identically regardless of the
    order in which its elements were encountered. *)

val to_hex : t -> string
(** Render as a 16-character lowercase hex string. *)

(** {2 Streaming} *)

type acc
(** A running hash extended in place.  Extending it allocates nothing. *)

val acc : unit -> acc
(** A fresh running hash at {!basis}. *)

val add_char : acc -> char -> unit
(** Extend with one byte: [value a] becomes [char v c], where [v] was
    [value a] before. *)

val value : acc -> t
(** The hash of every byte added so far. *)

(** Immutable machine states.

    A state is a persistent snapshot of the whole guest machine.  The
    interpreter produces a fresh state from each step; the search keeps as
    many states alive as its frontier needs.  Mutation is always
    copy-on-write, so retaining a state is free.  A step copies each array
    it writes once, the first time it writes it (the globals, the syncs,
    the thread table, the running thread's registers), and makes later
    writes of the same step in place; nothing outside the step sees its
    copies before it returns the new state.

    The canonical fingerprint implements ZING-style heap-symmetry
    reduction: heap addresses are renamed in order of first reachability
    from the globals and thread registers, so states differing only in
    allocation history collapse. *)

module Heap_map : Map.S with type key = int

type thread = {
  proc : int;
  pc : int;
  regs : Value.t array;
  finished : bool;
  yielded : bool;  (** set by [Yield]; cleared after the next step *)
  atomic : int;    (** nesting depth of entered atomic sections *)
}

type sync_cell =
  | Mutex_cell of int          (** owner tid, or -1 when free *)
  | Event_cell of bool         (** signaled? *)
  | Sem_cell of int            (** available count *)

type heap_cell = {
  data : Value.t array;
  freed : bool;
}

type t = {
  prog : Prog.t;               (** static; shared by all states of a run *)
  goff : int array;            (** cached [Prog.global_offsets] *)
  soff : int array;            (** cached [Prog.sync_offsets] *)
  globals : Value.t array;
  syncs : sync_cell array;
  threads : thread array;
  heap : heap_cell Heap_map.t;
  next_addr : int;
  error : Merr.t option;
  last_tid : int;              (** thread that executed the last step; -1 at start *)
}

val initial : Prog.t -> t
(** The initial state: thread 0 runs [main]; no heap objects. *)

(* Accessors; [global_get] raises [Invalid_argument] on an index the
   compiler should have ruled out. *)

val global_get : t -> gid:int -> idx:int -> Value.t
val global_size : t -> gid:int -> int
val sync_size : t -> sid:int -> int
val thread_get : t -> int -> thread
val thread_count : t -> int

val all_finished : t -> bool

val signature : t -> int64
(** 64-bit FNV-1a fingerprint of the canonical representation:
    [signature t = Icb_util.Fnv.hash_string (canonical_repr t)].  It hashes
    the canonical bytes in one pass as the walk produces them, without
    building the string, and allocates nothing per byte.

    The format is persistent: checkpoints stamp the initial state's
    signature and carry visited-state signatures, as do collector
    snapshots on the distributed wire, so changing a single byte of
    [canonical_repr] orphans every saved checkpoint. *)

val canonical_repr : t -> string
(** The full canonical serialization (exact, collision-free); used by tests
    and available for exact state caching.  It and {!signature} come from
    the same walk. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump for trace reports. *)

(** A compiled guest program: the static part of a model.

    States refer to globals, synchronization objects and procedures by the
    indices assigned here.  Scalars are represented as arrays of size 1 so
    the interpreter has a single addressing path. *)

type global = {
  gname : string;
  gsize : int;            (** 1 for scalars *)
  ginit : Value.t;        (** every element starts at this value *)
  gvolatile : bool;       (** volatile globals are synchronization variables *)
}

type sync_kind =
  | Mutex
  | Event of { manual : bool; initially_signaled : bool }
  | Semaphore of { initial : int }

type sync_decl = {
  sname : string;
  ssize : int;            (** 1 for scalars *)
  skind : sync_kind;
}

type proc = {
  pname : string;
  nparams : int;
  nregs : int;            (** total register count, parameters first *)
  code : Instr.t array;
}

type t = {
  globals : global array;
  syncs : sync_decl array;
  procs : proc array;
  main : int;             (** index of the procedure run as thread 0 *)
}

val global_offsets : t -> int array
(** Flat-layout offset of each global in a state's value array; the extra
    final element is the total size. *)

val sync_offsets : t -> int array
(** Same for synchronization objects. *)

val find_global : t -> string -> int
(** Index of the named global.  Raises [Not_found]. *)

val validate : t -> (unit, string) result
(** Structural sanity checks: register/jump/global/proc indices in range,
    main exists, CAS only on volatile globals.  Programs produced by the
    [zlang] compiler always validate; the check guards hand-built
    programs. *)

val pp : Format.formatter -> t -> unit

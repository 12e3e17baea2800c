(** The deterministic interpreter.

    A {e step} is the paper's unit of scheduling: the scheduler picks an
    enabled thread, which executes exactly one shared-variable access and
    then runs on through thread-local instructions until parked at its next
    shared access.  Two granularities are supported:

    - [Every_access]: every shared-variable access is a scheduling point
      (the ZING configuration);
    - [Sync_only]: only synchronization accesses are scheduling points, and
      plain data accesses execute atomically inside the enclosing step (the
      CHESS configuration, sound when combined with race detection —
      Section 3.1, Theorems 2 and 3 of the paper).

    Threads are always {e parked} at a scheduling instruction (or finished);
    [start] and [step] maintain this invariant, running freshly spawned
    threads forward to their first scheduling point. *)

type granularity =
  | Every_access
  | Sync_only

(** Identity of a shared variable, for race detection and happens-before
    signatures. *)
type var_id =
  | Gvar of int * int   (** global id, element index *)
  | Hcell of int * int  (** heap address, element index *)
  | Svar of int * int   (** sync object id, element index *)

val compare_var : var_id -> var_id -> int
(** The one order on variables, used by every map and set keyed on them
    (the race detectors, the happens-before signature, step footprints):
    by kind ([Gvar] < [Hcell] < [Svar]), then by the first index, then by
    the element index.  It is the order [Stdlib.compare] gives, without
    the polymorphic traversal. *)

module Var_map : Map.S with type key = var_id
(** Maps ordered by {!compare_var}. *)

module Var_set : Set.S with type elt = var_id
(** Sets ordered by {!compare_var}. *)

type event =
  | Ev_data of { tid : int; var : var_id; write : bool }
      (** plain (non-synchronization) access *)
  | Ev_sync of { tid : int; var : var_id }
      (** synchronization access; per the paper, any two accesses to the
          same synchronization variable are dependent, so no read/write
          distinction is needed *)
  | Ev_fork of { parent : int; child : int }
  | Ev_lifetime of { tid : int; addr : int; freed : bool }
      (** allocation ([freed = false]) or deallocation of a heap object;
          invisible to the race detectors and coverage signatures, but a
          deallocation conflicts with every access to the object — the
          partial-order reduction needs that *)

type step_result = {
  state : State.t;
  events : event list;    (** in execution order *)
  blocking_op : bool;     (** the scheduling instruction was potentially blocking *)
}

val start : granularity -> Prog.t -> step_result
(** Initial state with thread 0 parked at its first scheduling point.
    [blocking_op] is always [false] here. *)

val enabled : State.t -> int list
(** The scheduler-visible enabled set, in increasing tid order: the
    threads whose parked instruction can execute now, minus threads that
    yielded since the last step, unless that leaves nothing, in which
    case yield flags are ignored (a yielding thread cannot disable the
    whole program).  Empty in an error state. *)

val enabled_set : State.t -> int
(** [enabled st] as a bit set, bit [t] for thread [t], without building
    the list; [-1] when [st] has more than 62 threads. *)

type status =
  | Running               (** at least one thread is enabled *)
  | Terminated            (** every thread has finished *)
  | Deadlock of int list  (** nobody is enabled; the listed threads are blocked *)
  | Error of Merr.t

val status : State.t -> status

val step : granularity -> State.t -> int -> step_result
(** [step gran st tid] executes one scheduling step of [tid] and leaves
    [st] as it was.  [tid] must be unfinished and its parked instruction
    able to execute (yield flags aside, so a thread {!enabled} hides may
    still step), and [st] must not be an error state; violating this
    raises [Invalid_argument].  The step copies each array of [st] it
    writes (the globals, the syncs, the thread table, [tid]'s registers)
    once, however many instructions write it. *)

val var_name : Prog.t -> var_id -> string
(** Human-readable name of a variable for error messages. *)

(** Vector-clock data-race detector (DJIT+/FastTrack style).

    Consumes the interpreter's event stream.  Synchronization accesses act
    as combined acquire-release on the variable (matching the paper's
    dependence relation, under which any two accesses to the same sync
    variable are ordered); data accesses are checked against the last write
    epoch and the read epochs since that write.

    A write that races several earlier readers reports the lowest racing
    reader's thread id.  FastTrack's same-epoch fast paths skip the work
    that cannot change anything: a read by a thread that already read the
    variable at its current epoch, and a write by the thread that last
    wrote it at its current epoch with no reads since, return the
    detector state unchanged, without allocating.

    The state is persistent: the search can branch an execution and carry
    the detector along each branch. *)

type t

val empty : t

val observe : t -> Icb_machine.Interp.event list -> (t, Report.race) result
(** Process the events of one step, in order.  Returns the first race
    found, if any; otherwise the advanced detector state. *)

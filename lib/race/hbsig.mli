(** Happens-before execution signatures.

    The paper's Section 4.3 uses the happens-before relation of an
    execution as the representation of the state it reaches, for programs
    whose concrete states a stateless checker cannot capture.  Two
    executions that differ only in the order of independent steps have
    equal happens-before relations and therefore equal signatures here.

    The signature is the sum ([Int64.add], wrapping) of one term per
    synchronization variable, a hash of its access sequence (each entry
    being the accessing thread and that thread's operation index), and
    one term per thread, a hash of its id and operation count.  Within a
    variable the sequence order matters; across variables it must not —
    reordering independent steps permutes events of different variables
    but preserves each variable's sequence. *)

type t

val empty : t

val observe : t -> Icb_machine.Interp.event list -> t
(** Fold the events of one step into the signature state. *)

val signature : t -> int64
(** The current signature, in O(1).  The sum over variables and threads
    described above is kept as a running total: each update replaces an
    entry's old term by its new one, and each thread's current term is
    stored, so the value is exactly the documented sum without folding
    over the state. *)

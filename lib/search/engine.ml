(** The abstract transition system the search strategies explore.

    The paper's algorithm is defined over [enabled] and [execute]; this
    signature adds the bookkeeping the evaluation needs (depth, blocking
    operations, preemptions, signatures for state counting).  Two engines
    implement it: {!Mach_engine} (persistent states of the guest machine —
    the ZING configuration) and [Icb_chess.Engine] (schedule-prefix replay
    of real OCaml code — the CHESS configuration). *)

type status =
  | Running
  | Terminated                              (** every thread finished *)
  | Deadlock of int list                    (** nobody enabled, listed threads blocked *)
  | Failed of { key : string; msg : string }

let is_terminal = function
  | Running -> false
  | Terminated | Deadlock _ | Failed _ -> true

exception Nondeterministic_program of string
(** Raised by stateless (replay-based) engines when re-executing a
    recorded schedule observes a different sequence of synchronization
    operations than the recording — the test body is nondeterministic
    (timing, [Random], I/O or ambient-state leakage).  The search
    strategies contain it as a dedicated, actionable diagnostic instead of
    letting a confusing [Invalid_argument] abort the whole run. *)

(** The variables a single step would touch, for independence checks in
    partial-order reduction.  Two steps commute when their footprints are
    disjoint and neither spawns a thread. *)
module Footprint = struct
  module Var_set = Icb_machine.Interp.Var_set

  type t = {
    vars : Var_set.t;
    pinned : bool;
        (* the step spawns a thread or yields: either changes global
           scheduling state (the enabled set, the yield flags), so it is
           conservatively dependent on everything *)
  }

  (* Heap accesses additionally claim an object-wide pseudo-variable
     [Hcell (addr, -1)], which allocation and deallocation claim too: a
     [free] must conflict with every access to the object even when they
     touch different cells. *)
  let of_events ?(pinned = false) events =
    List.fold_left
      (fun fp (ev : Icb_machine.Interp.event) ->
        match ev with
        | Ev_sync { var; _ } | Ev_data { var; _ } ->
          let vars = Var_set.add var fp.vars in
          let vars =
            match var with
            | Icb_machine.Interp.Hcell (addr, _) ->
              Var_set.add (Icb_machine.Interp.Hcell (addr, -1)) vars
            | Icb_machine.Interp.Gvar _ | Icb_machine.Interp.Svar _ -> vars
          in
          { fp with vars }
        | Ev_lifetime { addr; _ } ->
          { fp with vars = Var_set.add (Icb_machine.Interp.Hcell (addr, -1)) fp.vars }
        | Ev_fork _ -> { fp with pinned = true })
      { vars = Var_set.empty; pinned }
      events

  (* Conservative commutativity: disjoint variable sets, neither step
     pinned. *)
  let independent a b =
    (not a.pinned) && (not b.pinned) && Var_set.disjoint a.vars b.vars
end

module type S = sig
  type state

  val initial : unit -> state

  val enabled : state -> int list
  (** Scheduler-visible enabled threads, in increasing tid order.  Threads
      that just yielded are excluded unless that would empty the set.  The
      machine engine computes each state's set once, when the state is
      made, and [status] and the next [step]'s preemption count read the
      same set; the CHESS engine caches it too. *)

  val step : state -> int -> state
  (** Execute one scheduling step of the given (enabled) thread.  The
      engine updates its own preemption count: the switch is preempting iff
      the previously running thread is still in [enabled] and differs from
      the chosen thread. *)

  val status : state -> status

  val signature : state -> int64
  (** State identity for coverage counting and caching: the canonical
      machine-state fingerprint for stateful engines, the happens-before
      signature for stateless ones. *)

  val depth : state -> int
  (** Steps executed so far (the paper's K at terminal states). *)

  val blocking_ops : state -> int
  (** Potentially-blocking instructions executed so far (the paper's B). *)

  val preemptions : state -> int
  (** Preempting context switches so far (the paper's c). *)

  val schedule : state -> int list
  (** The schedule so far, oldest first; replaying it from [initial]
      reproduces this state. *)

  val trail : state -> int list
  (** The same schedule newest first, in O(1): the list the engine conses
      one step at a time, shared with the state this one stepped from.
      Work items keep it as their prefix ({!Strategy.prefix}) instead of
      copying the schedule. *)

  val thread_count : state -> int

  val step_footprint : state -> int -> Footprint.t
  (** The footprint of the step the given (enabled) thread would take
      from this state, computed by speculative execution; used by the
      partial-order-reducing strategies.  Persistent-state engines compute
      this cheaply; the stateless engine pays a replay. *)

  type snap
  (** An engine-defined snapshot of a [state], cheap to retain and valid to
      [restore] any number of times.  For persistent-state engines the
      snapshot {e is} the state; engines whose states carry one-shot
      resources (a live effects run) cannot offer this. *)

  val snapshot : (state -> snap) option
  (** [Some capture] when the engine supports prefix-snapshot caching:
      [restore (capture st)] must behave exactly like [st] under every
      operation of this signature, arbitrarily many times.  [None] declines
      the capability — the search then rebuilds states by replaying
      schedule prefixes from [initial] (the CHESS stateless discipline),
      and refuses the strategies' state caches, which key on [signature]. *)

  val restore : snap -> state
  (** Rehydrate a snapshot.  Never called when [snapshot] is [None]. *)
end

(** Shared preemption-accounting rule (paper, Appendix A): the switch to
    [chosen] at a state whose last step was by [last_tid] is preempting iff
    [last_tid] ran before, is different from [chosen], and is still
    schedulable. *)
let preempting ~last_tid ~enabled ~chosen =
  last_tid >= 0 && chosen <> last_tid && List.mem last_tid enabled

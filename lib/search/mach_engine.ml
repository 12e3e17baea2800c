module Interp = Icb_machine.Interp
module State = Icb_machine.State
module Merr = Icb_machine.Merr

type signature_mode =
  | Canonical_state
  | Hb_signature

type config = {
  granularity : Interp.granularity;
  check_races : bool;
  detector : [ `Vclock | `Goldilocks ];
  signature_mode : signature_mode;
}

let default_config =
  {
    granularity = Interp.Sync_only;
    check_races = true;
    detector = `Vclock;
    signature_mode = Canonical_state;
  }

let zing_config =
  {
    granularity = Interp.Every_access;
    check_races = false;
    detector = `Vclock;
    signature_mode = Canonical_state;
  }

let chess_config =
  {
    granularity = Interp.Sync_only;
    check_races = true;
    detector = `Goldilocks;
    signature_mode = Hb_signature;
  }

type detector_state =
  | Det_none
  | Det_vclock of Icb_race.Vcdetect.t
  | Det_gold of Icb_race.Goldilocks.t

type state = {
  mstate : State.t;
  hbs : Icb_race.Hbsig.t;
  det : detector_state;
  race : Icb_race.Report.race option;  (* sticky: a detected race ends the run *)
  depth : int;
  blocks : int;
  npreempt : int;
  sched_rev : int list;
  last_events : Interp.event list;
}

let machine_state s = s.mstate

let events_of_last_step s = s.last_events

module Make (Cfg : sig
  val config : config
  val prog : Icb_machine.Prog.t
end) : Engine.S with type state = state = struct
  type nonrec state = state

  let cfg = Cfg.config

  (* [signature] is the happens-before signature's only reader: outside
     [Hb_signature] mode every state keeps [Hbsig.empty] *)
  let observe_hb hbs events =
    match cfg.signature_mode with
    | Hb_signature -> Icb_race.Hbsig.observe hbs events
    | Canonical_state -> hbs

  let init_detector () =
    if not cfg.check_races then Det_none
    else
      match cfg.detector with
      | `Vclock -> Det_vclock Icb_race.Vcdetect.empty
      | `Goldilocks -> Det_gold Icb_race.Goldilocks.empty

  let run_detector det events =
    match det with
    | Det_none -> (Det_none, None)
    | Det_vclock d -> (
      match Icb_race.Vcdetect.observe d events with
      | Ok d -> (Det_vclock d, None)
      | Error r -> (det, Some r))
    | Det_gold d -> (
      match Icb_race.Goldilocks.observe d events with
      | Ok d -> (Det_gold d, None)
      | Error r -> (det, Some r))

  let initial () =
    let r = Interp.start cfg.granularity Cfg.prog in
    let det, race = run_detector (init_detector ()) r.events in
    {
      mstate = r.state;
      hbs = observe_hb Icb_race.Hbsig.empty r.events;
      det;
      race;
      depth = 0;
      blocks = 0;
      npreempt = 0;
      sched_rev = [];
      last_events = r.events;
    }

  let enabled s = if s.race <> None then [] else Interp.enabled s.mstate

  let status s =
    match s.race with
    | Some r ->
      let e = Icb_race.Report.to_merr Cfg.prog r in
      Engine.Failed { key = Merr.key e; msg = Merr.to_string e }
    | None -> (
      match Interp.status s.mstate with
      | Interp.Running -> Engine.Running
      | Interp.Terminated -> Engine.Terminated
      | Interp.Deadlock blocked -> Engine.Deadlock blocked
      | Interp.Error e ->
        Engine.Failed { key = Merr.key e; msg = Merr.to_string e })

  let step s tid =
    let en = enabled s in
    let preempting =
      Engine.preempting ~last_tid:s.mstate.State.last_tid ~enabled:en
        ~chosen:tid
    in
    let r = Interp.step cfg.granularity s.mstate tid in
    let det, race = run_detector s.det r.events in
    {
      mstate = r.state;
      hbs = observe_hb s.hbs r.events;
      det;
      race;
      depth = s.depth + 1;
      blocks = (s.blocks + if r.blocking_op then 1 else 0);
      npreempt = (s.npreempt + if preempting then 1 else 0);
      sched_rev = tid :: s.sched_rev;
      last_events = r.events;
    }

  let signature s =
    match cfg.signature_mode with
    | Canonical_state ->
      (* fold the sticky race flag in so a raced state is distinct *)
      let base = State.signature s.mstate in
      if s.race = None then base else Icb_util.Fnv.int base 1
    | Hb_signature -> Icb_race.Hbsig.signature s.hbs

  let depth s = s.depth
  let blocking_ops s = s.blocks
  let preemptions s = s.npreempt
  let schedule s = List.rev s.sched_rev
  let thread_count s = State.thread_count s.mstate

  (* Persistent states make speculation free: execute the step on the
     side and discard the result.  A step is pinned (dependent on
     everything) when it yields — it perturbs every thread's scheduling —
     or when it does not leave the program running: an erroring step
     truncates the execution, so the commuting square partial-order
     reduction relies on loses a corner. *)
  let step_footprint s tid =
    let s' = step s tid in
    let pinned =
      (State.thread_get s'.mstate tid).State.yielded
      || (match status s' with Engine.Running -> false | _ -> true)
    in
    Engine.Footprint.of_events ~pinned s'.last_events

  (* Every component of [state] is persistent (copy-on-write [State.t],
     immutable detector and happens-before values), so a snapshot is the
     state itself: retaining and restoring it any number of times is
     free and exact. *)
  type snap = state

  let snapshot = Some (fun (s : state) -> s)
  let restore (s : snap) = s
end

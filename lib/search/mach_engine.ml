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
  en : int;
      (* the enabled set, computed once when the state is made: a bit per
         thread ([Interp.enabled_set]); empty once raced, [-1] when the
         program has more threads than a word has bits *)
}

let machine_state s = s.mstate

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

  let enabled_set mstate race =
    if race <> None then 0 else Interp.enabled_set mstate

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
      en = enabled_set r.state race;
    }

  let enabled s =
    if s.en < 0 then Interp.enabled s.mstate
    else
      let rec go t acc =
        if t < 0 then acc
        else go (t - 1) (if s.en land (1 lsl t) <> 0 then t :: acc else acc)
      in
      go (State.thread_count s.mstate - 1) []

  let is_enabled s tid =
    if s.en < 0 then List.mem tid (Interp.enabled s.mstate)
    else s.en land (1 lsl tid) <> 0

  let status s =
    match s.race with
    | Some r ->
      let e = Icb_race.Report.to_merr Cfg.prog r in
      Engine.Failed { key = Merr.key e; msg = Merr.to_string e }
    | None when s.en > 0 -> Engine.Running
    | None -> (
      match Interp.status s.mstate with
      | Interp.Running -> Engine.Running
      | Interp.Terminated -> Engine.Terminated
      | Interp.Deadlock blocked -> Engine.Deadlock blocked
      | Interp.Error e ->
        Engine.Failed { key = Merr.key e; msg = Merr.to_string e })

  (* The state [Interp.step]'s result [r] makes of [s] stepping [tid].
     The switch preempts iff the last thread to run is still in [s]'s
     enabled set ([Engine.preempting]'s rule), read from its bits. *)
  let stepped s tid (r : Interp.step_result) =
    let last = s.mstate.State.last_tid in
    let preempting = last >= 0 && tid <> last && is_enabled s last in
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
      en = enabled_set r.state race;
    }

  let step s tid = stepped s tid (Interp.step cfg.granularity s.mstate tid)

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
  let trail s = s.sched_rev
  let thread_count s = State.thread_count s.mstate

  (* Persistent states make speculation free: execute the step on the
     side and discard the result.  A step is pinned (dependent on
     everything) when it yields — it perturbs every thread's scheduling —
     or when it does not leave the program running: an erroring step
     truncates the execution, so the commuting square partial-order
     reduction relies on loses a corner. *)
  let step_footprint s tid =
    let r = Interp.step cfg.granularity s.mstate tid in
    let s' = stepped s tid r in
    let pinned =
      (State.thread_get s'.mstate tid).State.yielded
      || (match status s' with Engine.Running -> false | _ -> true)
    in
    Engine.Footprint.of_events ~pinned r.events

  (* Every component of [state] is persistent (copy-on-write [State.t],
     immutable detector and happens-before values), so a snapshot is the
     state itself: retaining and restoring it any number of times is
     free and exact. *)
  type snap = state

  let snapshot = Some (fun (s : state) -> s)
  let restore (s : snap) = s
end

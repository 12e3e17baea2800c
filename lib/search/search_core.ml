(* Machinery shared by the strategies and every round runner of
   [Driver] (serial queue, domain pool, distributed lease server):
   execution accounting, crash containment, checkpoint write control, the
   per-worker materializer that turns work items into states and — most
   importantly — the per-work-item ICB exploration.

   Every runner replays the very same code path per work item, so they
   provably explore identical executions; the conformance suite
   (test/test_conformance.ml) checks exactly that. *)

(* [signature] is [st]'s: every caller has just computed it to touch the
   state, so it is passed in rather than computed twice. *)
let finish (type s) (module E : Engine.S with type state = s) col (st : s)
    ~signature status =
  Collector.end_execution col
    {
      Collector.depth = E.depth st;
      blocks = E.blocking_ops st;
      preemptions = E.preemptions st;
      threads = E.thread_count st;
      trail = E.trail st;
      signature;
      status;
    }

(* --- crash containment -------------------------------------------------- *)

(* An exception escaping an engine step (including Stack_overflow and
   Out_of_memory when the runtime lets us catch them) must not abort the
   whole search: the schedule prefix that provoked it is a perfectly
   replayable bug report.  [Engine.Nondeterministic_program] gets its own
   key and an actionable message; everything else is keyed by the
   exception's constructor so repeated crashes deduplicate.  The repro
   layer matches replayed crashes by the same [crash_key]. *)
let crash_key = function
  | Engine.Nondeterministic_program _ -> "nondeterministic-program"
  | exn -> "engine-crash:" ^ Printexc.exn_slot_name exn

let record_crash (type s) (module E : Engine.S with type state = s) col
    (st : s) tid exn =
  let msg =
    match exn with
    | Engine.Nondeterministic_program detail ->
      Printf.sprintf
        "the test body is nondeterministic: %s; make the body \
         deterministic (no timing, Random or I/O dependence, no state \
         leaking across executions) so schedules replay faithfully"
        detail
    | exn ->
      Printf.sprintf
        "exception escaped the engine step (thread %d at depth %d): %s" tid
        (E.depth st) (Printexc.to_string exn)
  in
  Collector.end_execution col
    {
      Collector.depth = E.depth st + 1;
      blocks = E.blocking_ops st;
      preemptions = E.preemptions st;
      threads = E.thread_count st;
      trail = tid :: E.trail st;
      signature = E.signature st;
      status = Engine.Failed { key = crash_key exn; msg };
    }

(* Step the engine, containing crashes: [None] means the step blew up and
   was recorded as a bug — the strategy simply abandons that branch. *)
let step_guarded (type s) (module E : Engine.S with type state = s) col
    (st : s) tid =
  match E.step st tid with
  | st' -> Some st'
  | exception exn ->
    record_crash (module E) col st tid exn;
    None

(* --- the ICB work item -------------------------------------------------- *)

(* Algorithm 1's inner loop, one execution long: run [tid] from [st], and
   keep running it, or the first thread a free switch picks, to the
   execution's end.  A switch away from a still-enabled running thread
   costs one preemption, so those branches are handed to [defer] for the
   next context bound; the other threads of a free switch are handed to
   [push], as work items of the current bound.  [seen] is the optional
   state cache keyed on (signature, tid), checked at an item's start and
   before each continuation; each reached state is fingerprinted once,
   and that one signature is touched, checked against the cache and
   stamped on the execution it ends.

   [admit st' tid] decides whether the preemption point reached at [st']
   (the running thread [tid] still enabled, about to be switched away
   from) admits preemptions at all: the variable- and thread-bounding
   strategies seal points outside their bound.  A sealed point's
   preempting branches are dropped — [seal] is called once per sealed
   point so the strategy can report the search as bounded rather than
   complete.  The default admits everything, which is exactly ICB.

   Each point hands off its other branches before the item goes on, so
   the execution's end (or its crash) is the last thing an item reports
   to the collector, unless {!Collector.overdue} makes it give up.  An
   item is fully determined by (schedule prefix, tid) plus the
   strategy's deterministic [admit], independent of who runs it or
   when. *)
let icb_item (type s) (module E : Engine.S with type state = s) col ?seen
    ?(admit = fun _ _ -> true) ?(seal = fun () -> ()) ~defer ~push
    (st0, tid0) =
  let cached sg tid =
    match seen with Some seen -> seen sg tid | None -> false
  in
  let rec search st tid =
    match step_guarded (module E) col st tid with
    | None -> ()
    | Some st' -> (
      let sg = E.signature st' in
      Collector.touch col sg;
      match E.status st' with
      | Engine.Running ->
        let en = E.enabled st' in
        if List.mem tid en then begin
          (* running thread still enabled: scheduling anyone else here
             costs a preemption, so defer those work items to the next
             bound — unless the bounding discipline seals this preemption
             point — and continue it without a context switch *)
          if List.exists (fun t -> t <> tid) en then
            if admit st' tid then
              List.iter (fun t -> if t <> tid then defer st' t) en
            else seal ();
          if not (Collector.overdue col || cached sg tid) then search st' tid
        end
        else free st' sg en
      | status -> finish (module E) col st' ~signature:sg status)
  (* the running thread blocked or finished: switching is free; the
     others are pushed last first, so they run in order *)
  and free st sg = function
    | [] -> ()
    | _ when Collector.overdue col -> ()
    | t :: rest when cached sg t -> free st sg rest
    | t :: rest ->
      List.iter (fun t' -> push st t') (List.rev rest);
      search st t
  in
  match seen with
  | Some seen when seen (E.signature st0) tid0 -> ()
  | Some _ | None -> search st0 tid0

(* The paper's optional state cache as [icb_item]'s [seen], over a
   per-worker table: absent when caching is off. *)
let item_cache ~cache table =
  if not cache then None
  else
    Some
      (fun sg tid ->
        let k = (sg, tid) in
        Hashtbl.mem table k || (Hashtbl.add table k (); false))

(* --- turning a work item into a state ----------------------------------- *)

(* One per worker: how a work item becomes an engine state, and what state
   an item may carry when it is handed off.

   The hand-off rule: an item keeps its state only while the replay cache
   is on, and only if it stays on its domain ([mz_stay]: the serial
   queue's and a worker's own current-round follow-ups) or the engine's
   states are snapshots ([mz_move]: a round's seed, a steal, a deferred
   item).  An engine without snapshots may pin a state to the domain that
   made it (the CHESS engine's live run), so such a state never moves;
   nor is it kept for the next round, where its one-shot run is long
   spent and a replay from the root is all it could offer.  The serial
   runner's ranked queue bypasses [mz_stay]: its items keep the states
   they are ranked by, whether the cache is on or off.

   Dropping a state keeps a one-word witness of its enabled set (see
   {!witness}), so nondeterminism is caught whether or not states are
   kept.  The witness costs no signature: each reached state is still
   fingerprinted exactly once.

   A carried state wins.  An item without one replays its prefix, through
   the worker's path memo when the cache is on and the engine takes
   snapshots, else from the root; both share one [Replay_cache.stats], so
   cached and uncached runs report comparable step counts.  Replays never
   touch the collector: the prefix's states were already counted by
   whoever deferred or checkpointed the item.  [mz_run]'s [Error (st,
   tid, exn)] surfaces a step that raised, for the caller to either
   contain ({!contained}) or reject (serial resume).  For a witnessed
   item the prefix is one this run already took, so a step that raises,
   or a last step that reaches another enabled set, is reported as
   [Engine.Nondeterministic_program]. *)
type 's materializer = {
  mz_run : 's Strategy.item -> ('s, 's * int * exn) result;
  mz_stay : 's Strategy.item -> 's Strategy.item;
  mz_move : 's Strategy.item -> 's Strategy.item;
  mz_stats : Replay_cache.stats;
  mz_memo : bool;  (* the cache is on and the engine takes snapshots *)
}

(* An enabled set as one word: bit [t mod 62] per thread, exact below 62
   threads and never [Strategy.no_witness]. *)
let witness enabled =
  List.fold_left (fun w t -> w lor (1 lsl (t mod 62))) 0 enabled

let materializer (type s) ((module E) : (module Engine.S with type state = s))
    ~cache : s materializer =
  let stats = Replay_cache.zero () in
  let memo =
    match E.snapshot with
    | Some capture when cache ->
      Some (Replay_cache.memo ~capture ~restore:E.restore)
    | Some _ | None -> None
  in
  let strip it =
    match it.Strategy.i_state with
    | None -> it
    | Some st ->
      { it with Strategy.i_state = None; i_witness = witness (E.enabled st) }
  in
  let replay ~step it =
    Replay_cache.replay memo ~stats ~init:E.initial ~step
      (Strategy.schedule_of it.Strategy.i_sched)
  in
  (* The last step of a witnessed prefix checks the witness, so a
     divergence is blamed on exactly the item's prefix. *)
  let rebuild it =
    let n = Strategy.prefix_length it.Strategy.i_sched in
    let step st t =
      let st' = E.step st t in
      if E.depth st' = n && witness (E.enabled st') <> it.Strategy.i_witness
      then
        raise
          (Engine.Nondeterministic_program
             (Printf.sprintf
                "after replaying %d steps the enabled threads are [%s], not \
                 the ones recorded"
                n
                (String.concat " " (List.map string_of_int (E.enabled st')))));
      st'
    in
    match replay ~step it with
    | Ok _ as ok -> ok
    | Error (_, _, Engine.Nondeterministic_program _) as e -> e
    | Error (st, t, exn) ->
      Error
        ( st,
          t,
          Engine.Nondeterministic_program
            (Printf.sprintf
               "replaying the recorded schedule, thread %d could not take \
                step %d (%s)"
               t (E.depth st + 1) (Printexc.to_string exn)) )
  in
  let run it =
    match it.Strategy.i_state with
    | Some st ->
      (* a hit only with the memo on: without snapshots, stepping the
         state again makes the engine replay the prefix itself; with the
         cache off, the only carried states are the serial runner's
         ranked items, which keep the state they were pushed with, so
         nothing is replayed for them; the state's depth is its prefix's
         length *)
      (match (memo, E.depth st) with
      | None, _ | Some _, 0 -> ()
      | Some _, n ->
        stats.Replay_cache.hits <- stats.Replay_cache.hits + 1;
        stats.Replay_cache.steps_saved <- stats.Replay_cache.steps_saved + n);
      Ok st
    | None when it.Strategy.i_witness = Strategy.no_witness ->
      replay ~step:E.step it
    | None -> rebuild it
  in
  {
    mz_run = run;
    mz_stay = (if cache then Fun.id else strip);
    mz_move = (if Option.is_some memo then Fun.id else strip);
    mz_stats = stats;
    mz_memo = Option.is_some memo;
  }

(* The domain pool's and a distributed worker's materialization: a prefix
   that no longer replays means the program is nondeterministic (or the
   checkpoint is foreign), contained as a replayable bug like any other
   engine crash. *)
let contained (type s) (module E : Engine.S with type state = s) mz col it =
  match mz.mz_run it with
  | Ok st -> Some st
  | Error (st, t, exn) ->
    record_crash (module E) col st t exn;
    None

let icb_strategy_name ~max_bound =
  match max_bound with
  | None -> "icb"
  | Some b -> Printf.sprintf "icb:%d" b

(* --- checkpoint write control ------------------------------------------- *)

let default_checkpoint_every = 500

type ckpt_ctl = {
  ck_path : string;
  ck_every : int;               (* executions between periodic saves *)
  ck_meta : (string * string) list;
  mutable ck_last : int;        (* executions at the last save *)
  ck_events : Icb_obs.Emit.t;   (* telemetry for Checkpoint_written *)
}

let save_checkpoint col ctl ~strategy ~frontier =
  Checkpoint.save ~path:ctl.ck_path
    {
      Checkpoint.strategy;
      meta = ctl.ck_meta;
      collector = Collector.snapshot col;
      frontier;
    };
  ctl.ck_last <- Collector.executions col;
  if Icb_obs.Emit.enabled ctl.ck_events then
    Icb_obs.Emit.emit ctl.ck_events
      (Icb_obs.Event.Checkpoint_written
         { path = ctl.ck_path; executions = Collector.executions col })

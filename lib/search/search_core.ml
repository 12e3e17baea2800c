(* Machinery shared by the strategies and every round runner of
   [Driver] (serial queue, domain pool, distributed lease server):
   execution accounting, crash containment, checkpoint write control and
   — most importantly — the per-work-item ICB exploration.

   Every runner replays the very same code path per work item, so they
   provably explore identical subtrees; the equivalence test suites
   (test/test_parallel.ml, test/test_dist.ml) check exactly that. *)

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
      schedule = E.schedule st;
      signature;
      status;
    }

(* --- crash containment -------------------------------------------------- *)

(* An exception escaping an engine step (including Stack_overflow and
   Out_of_memory when the runtime lets us catch them) must not abort the
   whole search: the schedule prefix that provoked it is a perfectly
   replayable bug report.  [Engine.Nondeterministic_program] gets its own
   key and an actionable message; everything else is keyed by the
   exception's constructor so repeated crashes deduplicate. *)
let record_crash (type s) (module E : Engine.S with type state = s) col
    (st : s) tid exn =
  let key, msg =
    match exn with
    | Engine.Nondeterministic_program detail ->
      ( "nondeterministic-program",
        Printf.sprintf
          "the test body is nondeterministic: %s; make the body \
           deterministic (no timing, Random or I/O dependence, no state \
           leaking across executions) so schedules replay faithfully"
          detail )
    | exn ->
      ( "engine-crash:" ^ Printexc.exn_slot_name exn,
        Printf.sprintf
          "exception escaped the engine step (thread %d at depth %d): %s"
          tid (E.depth st) (Printexc.to_string exn) )
  in
  Collector.end_execution col
    {
      Collector.depth = E.depth st + 1;
      blocks = E.blocking_ops st;
      preemptions = E.preemptions st;
      threads = E.thread_count st;
      schedule = E.schedule st @ [ tid ];
      signature = E.signature st;
      status = Engine.Failed { key; msg };
    }

(* Step the engine, containing crashes: [None] means the step blew up and
   was recorded as a bug — the strategy simply abandons that branch. *)
let step_guarded (type s) (module E : Engine.S with type state = s) col
    (st : s) tid =
  match E.step st tid with
  | st' -> Some st'
  | exception Collector.Stop -> raise Collector.Stop
  | exception exn ->
    record_crash (module E) col st tid exn;
    None

(* --- the ICB work item -------------------------------------------------- *)

(* Algorithm 1's inner loop: explore from [st] by running [tid] and then
   every continuation that costs no preemption; a switch away from a
   still-enabled running thread costs one preemption, so those branches are
   handed to [defer] for the next context bound.  [seen] is the optional
   state cache keyed on (signature, tid); each reached state is
   fingerprinted once, and that one signature is touched, checked against
   the cache and stamped on the execution it ends.

   [admit st' tid] decides whether the preemption point reached at [st']
   (the running thread [tid] still enabled, about to be switched away
   from) admits preemptions at all: the variable- and thread-bounding
   strategies seal points outside their bound.  A sealed point's
   preempting branches are dropped — [seal] is called once per sealed
   point so the strategy can report the search as bounded rather than
   complete.  The default admits everything, which is exactly ICB.

   This closure is the unit of work of both the serial driver and the
   parallel executor: its subtree is fully determined by (schedule prefix,
   tid) plus the strategy's deterministic [admit], independent of who runs
   it or when. *)
let icb_item (type s) (module E : Engine.S with type state = s) col ?seen
    ?(admit = fun _ _ -> true) ?(seal = fun () -> ()) ~defer (st0, tid0) =
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
          (* running thread still enabled: continue it without a context
             switch; scheduling anyone else here costs a preemption, so
             defer those work items to the next bound — unless the
             bounding discipline seals this preemption point *)
          if not (cached sg tid) then search st' tid;
          if List.exists (fun t -> t <> tid) en then
            if admit st' tid then
              List.iter (fun t -> if t <> tid then defer st' t) en
            else seal ()
        end
        else
          (* the running thread blocked or finished: switching is free *)
          List.iter (fun t -> if not (cached sg t) then search st' t) en
      | status -> finish (module E) col st' ~signature:sg status)
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

(* --- cache-aware prefix materialization ---------------------------------- *)

(* One per worker: turns a work item back into an engine state.  The
   retained state slot ([i_state]) always wins; a stateless item is
   rebuilt either through the per-worker prefix-snapshot cache (engines
   with the snapshot capability, cache enabled) or by the classic
   from-the-root replay.  Both paths share one [Replay_cache.stats]
   record, so cached and uncached runs report comparable step counts.

   Replays never touch the collector: the prefix's states were already
   counted by whoever deferred or checkpointed the item.  [Error
   (st, tid, exn)] surfaces a step that raised, for the caller to either
   contain (parallel workers) or reject (serial resume). *)
type 's replayer = {
  rp_run : 's Strategy.item -> ('s, 's * int * exn) result;
  rp_stats : Replay_cache.stats;
}

let replayer (type s) ((module E) : (module Engine.S with type state = s))
    ?(cache = true) ?(capacity = Replay_cache.default_capacity) () :
    s replayer =
  let stats = Replay_cache.zero () in
  let plain sched =
    (match sched with
    | [] -> ()
    | _ :: _ -> stats.Replay_cache.misses <- stats.Replay_cache.misses + 1);
    let rec go st = function
      | [] -> Ok st
      | t :: rest -> (
        match E.step st t with
        | st' ->
          stats.Replay_cache.steps_replayed <-
            stats.Replay_cache.steps_replayed + 1;
          go st' rest
        | exception exn -> Error (st, t, exn))
    in
    go (E.initial ()) sched
  in
  let rebuild =
    match (if cache then E.snapshot else None) with
    | None -> plain
    | Some capture ->
      let rc : E.snap Replay_cache.t = Replay_cache.create ~capacity () in
      fun sched ->
        Replay_cache.replay rc ~stats ~sched ~init:E.initial ~step:E.step
          ~capture ~restore:E.restore
  in
  let run it =
    match it.Strategy.i_state with
    | Some st ->
      (* the snapshot slot taken at the item's fork point.  A state
         retained by an engine without snapshots saves no replay:
         stepping it again makes the engine replay the prefix itself *)
      (match (E.snapshot, it.Strategy.i_sched) with
      | None, _ | Some _, [] -> ()
      | Some _, sched ->
        stats.Replay_cache.hits <- stats.Replay_cache.hits + 1;
        stats.Replay_cache.steps_saved <-
          stats.Replay_cache.steps_saved + List.length sched);
      Ok st
    | None -> rebuild it.Strategy.i_sched
  in
  { rp_run = run; rp_stats = stats }

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

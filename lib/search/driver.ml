(* The one round executor: [run] executes any {!Strategy.S} over any
   {!Engine.S}, serially ([domains = 1]) or across OCaml domains, with
   checkpoint/resume for every strategy whose frontier serializes; the
   distributed coordinator ([Icb_dist.Coord]) serves the same loop over
   sockets.  Three parts (docs/ALGORITHM.md, "Architecture"):

   - the run [session]: everything about a run that does not depend on
     how a round's items execute — resume validation, the master
     collector, checkpoint control and wall-clock stamps, the barrier
     merge, and the run's closing event ([finish]);
   - the round loop ([rounds]): Algorithm 1's outer loop — emit the
     run's opening event, seed a fresh or resumed frontier, run a round,
     ask the strategy what comes next, and write the final checkpoint;
   - the round runners, which only execute one round's items and answer
     [Drained next] or [Stopped frontier]: the serial queue
     ([serial]), the domain pool ([pool]), and the coordinator's lease
     server.

   Every runner applies the limits ({!Collector.limit_hit}) and takes
   its periodic checkpoints only between work items, so an item runs to
   its end, unless its execution outlasts a limit ({!Collector.overdue}),
   and a stopped run resumes to the uninterrupted result. *)

(* A mutex-protected deque: the owner pushes and pops at the front (so a
   strategy's own follow-ups pop depth-first, keeping the frontier
   small), thieves steal from the back.  Contention is per-item and an
   item runs at most one execution, so a lock-free structure would buy
   nothing here. *)
module Dq = struct
  type 'a t = {
    m : Mutex.t;
    mutable front : 'a list;          (* head = next item for the owner *)
    mutable back : 'a list;           (* head = next item for a thief *)
  }

  let create () = { m = Mutex.create (); front = []; back = [] }

  let push_back q x = Mutex.protect q.m (fun () -> q.back <- x :: q.back)
  let push_front q x = Mutex.protect q.m (fun () -> q.front <- x :: q.front)

  let pop q =
    Mutex.protect q.m (fun () ->
        match q.front with
        | x :: rest ->
          q.front <- rest;
          Some x
        | [] -> (
          match List.rev q.back with
          | [] -> None
          | x :: rest ->
            q.front <- rest;
            q.back <- [];
            Some x))

  let steal q =
    Mutex.protect q.m (fun () ->
        match q.back with
        | x :: rest ->
          q.back <- rest;
          Some x
        | [] -> (
          match List.rev q.front with
          | [] -> None
          | x :: rest ->
            q.front <- [];
            q.back <- rest;
            Some x))

  (* Hand every item off with [f] in place and list them in pop order,
     while no worker runs. *)
  let hand_off q f =
    Mutex.protect q.m (fun () ->
        q.front <- List.map f q.front;
        q.back <- List.map f q.back;
        q.front @ List.rev q.back)
end

(* One worker's queue of a round's items, where nothing is stolen. *)
type 'a squeue = {
  sq_push : 'a -> unit;       (* a follow-up for the current round *)
  sq_seed : 'a list -> unit;  (* the round's items, in order *)
  sq_pop : unit -> 'a option;
  sq_items : unit -> 'a list; (* non-destructive, in pop order *)
}

(* A pool worker's deque ({!Dq}) without lock or thieves, for the serial
   runner and a distributed batch: own follow-ups first, newest first,
   then the round's items in order, handed off by [stay] as they are
   pushed or taken, so seeding does not copy the round's list. *)
let deque ~stay =
  let own = ref [] and round = ref [] in
  {
    sq_push = (fun x -> own := stay x :: !own);
    sq_seed = (fun xs -> round := xs);
    sq_pop =
      (fun () ->
        match (!own, !round) with
        | x :: rest, _ ->
          own := rest;
          Some x
        | [], x :: rest ->
          round := rest;
          Some (stay x)
        | [], [] -> None);
    sq_items = (fun () -> !own @ !round);
  }

(* Best-first: highest rank first, in push order within a rank.  [prep]
   readies an item for ranking, or drops it ([None]). *)
module Ranked = Map.Make (struct
  type t = int * int  (* minus the rank, push count *)

  let compare = compare
end)

let rank_queue ~rank ~prep =
  let q = ref Ranked.empty and pushed = ref 0 in
  let push x =
    Option.iter
      (fun x ->
        incr pushed;
        q := Ranked.add (-max 0 (rank x), !pushed) x !q)
      (prep x)
  in
  {
    sq_push = push;
    sq_seed = List.iter push;
    sq_pop =
      (fun () ->
        Option.map
          (fun (k, x) ->
            q := Ranked.remove k !q;
            x)
          (Ranked.min_binding_opt !q));
    sq_items = (fun () -> List.map snd (Ranked.bindings !q));
  }

let of_prefix (sched, payload) =
  {
    Strategy.i_sched = Strategy.Sched sched;
    i_payload = payload;
    i_state = None;
    i_witness = Strategy.no_witness;
  }

let sorted_items its = List.sort Strategy.compare_items its

let strip_items its = List.map Strategy.prefix_of its

(* A cheap program fingerprint stamped into every checkpoint (param
   "root_sig") and verified on resume: schedule prefixes alone cannot
   always betray a foreign program (an empty prefix replays anywhere), but
   the initial state's signature, thread count and enabled set can.
   Best-effort — v1/v2 checkpoints carry no fingerprint. *)
let fingerprint_key = "root_sig"

let fingerprint (type s) (module E : Engine.S with type state = s) =
  let s0 = E.initial () in
  Printf.sprintf "%Lx/%d/%s" (E.signature s0) (E.thread_count s0)
    (String.concat "," (List.map string_of_int (E.enabled s0)))

(* --- the run session ---------------------------------------------------- *)

type session = {
  master : Collector.t;
  options : Collector.options;  (* the caller's, events wired to [emit] *)
  workers : Collector.options;
      (* for worker-local collectors: the caller's options without its
         progress hook or events, which the runner relays itself *)
  emit : Icb_obs.Emit.t;
  ckpt : Search_core.ckpt_ctl option;
  fingerprint : string Lazy.t;
  resume : Checkpoint.v3 option;
  strategy : string;
  domains : int;  (* for [Run_started]: 0 when distributed *)
  round_done : unit -> unit;
  stamp : unit -> (string * string) list;
      (* checkpoint params: the fingerprint and the wall-clock totals *)
}

(* Validate [resume_from] against the strategy's tag and the program's
   fingerprint, and create or restore the master collector.  The
   fingerprint is computed here only when a checkpoint is read or
   written; the coordinator forces it for its job. *)
let session (type s) (module E : Engine.S with type state = s)
    (module S : Strategy.S with type state = s)
    ?(options = Collector.default_options) ?checkpoint_out
    ?(checkpoint_every = Search_core.default_checkpoint_every)
    ?(checkpoint_meta = []) ?resume_from ?telemetry ~domains () =
  let emit =
    match telemetry with
    | None -> Icb_obs.Emit.null
    | Some t -> Icb_obs.Telemetry.emitter t ~worker:0
  in
  (* the telemetry handle owns event wiring; a caller-supplied
     [options.events] is only honoured when no handle is given *)
  let options =
    if Icb_obs.Emit.enabled emit then { options with Collector.events = emit }
    else options
  in
  let fp = lazy (fingerprint (module E)) in
  if checkpoint_out <> None || resume_from <> None then
    ignore (Lazy.force fp);
  let resume =
    Option.map
      (fun (c : Checkpoint.t) ->
        let f = Checkpoint.to_v3 c in
        if f.Checkpoint.v3_tag <> S.tag then
          invalid_arg
            (Printf.sprintf
               "Explore.resume: checkpoint was written by a %s search, not \
                %s"
               f.Checkpoint.v3_tag S.tag);
        (match List.assoc_opt fingerprint_key f.Checkpoint.v3_params with
        | Some s when s <> Lazy.force fp ->
          invalid_arg
            "Explore.resume: the checkpoint belongs to a different program \
             (initial-state fingerprint mismatch)"
        | Some _ | None -> ());
        f)
      resume_from
  in
  let master =
    match resume_from with
    | None -> Collector.create options
    | Some (c : Checkpoint.t) -> Collector.restore options c.collector
  in
  (* Cumulative wall-clock accounting, carried across interruptions via
     checkpoint params: [base_elapsed]/[bound_times] seed from the
     resumed file, [round_done] charges each completed round, and [stamp]
     writes the totals into every save (charging the current partial
     round without closing it). *)
  let param key =
    Option.bind resume (fun (f : Checkpoint.v3) ->
        List.assoc_opt key f.Checkpoint.v3_params)
  in
  let started_at = Unix.gettimeofday () in
  let base_elapsed =
    Option.value
      (Option.bind (param Checkpoint.elapsed_key) float_of_string_opt)
      ~default:0.0
  in
  let bound_times =
    ref
      (match param Checkpoint.bound_times_key with
      | Some s -> Checkpoint.decode_bound_times s
      | None -> [])
  in
  let round_started = ref started_at in
  let charged now =
    let b = S.round () and d = now -. !round_started in
    if List.mem_assoc b !bound_times then
      List.map
        (fun (b', s) -> if b' = b then (b', s +. d) else (b', s))
        !bound_times
    else if d < 0.0005 then
      !bound_times (* no entries for rounds never explored *)
    else !bound_times @ [ (b, d) ]
  in
  {
    master;
    options;
    workers =
      { options with Collector.on_progress = None; events = Icb_obs.Emit.null };
    emit;
    ckpt =
      Option.map
        (fun path ->
          {
            Search_core.ck_path = path;
            ck_every = max 1 checkpoint_every;
            ck_meta = checkpoint_meta;
            ck_last = Collector.executions master;
            ck_events = emit;
          })
        checkpoint_out;
    fingerprint = fp;
    resume;
    strategy = S.name;
    domains;
    round_done =
      (fun () ->
        let now = Unix.gettimeofday () in
        bound_times := charged now;
        round_started := now);
    stamp =
      (fun () ->
        let now = Unix.gettimeofday () in
        [
          (fingerprint_key, Lazy.force fp);
          ( Checkpoint.elapsed_key,
            Printf.sprintf "%.3f" (base_elapsed +. now -. started_at) );
          ( Checkpoint.bound_times_key,
            Checkpoint.encode_bound_times (charged now) );
        ]);
  }

(* Write [col] and the frontier [f ()] to the checkpoint, stamped;
   without [checkpoint_out], nothing (and [f] is not called). *)
let save ses col f =
  match ses.ckpt with
  | None -> ()
  | Some ctl ->
    let f = f () in
    Search_core.save_checkpoint col ctl ~strategy:ses.strategy
      ~frontier:
        (Checkpoint.V3
           {
             f with
             Checkpoint.v3_params = f.Checkpoint.v3_params @ ses.stamp ();
           })

(* The deterministic barrier merge: fold the results' statistics into
   [col] in the given order, then absorb their bug candidates under the
   collector's witness rule, so each key keeps its least witness however
   the items were dealt.  A key new to [col] is stamped with the
   cumulative execution count at the merge point; the sort fixes the
   order new keys are listed in. *)
let merge col snaps =
  List.iter (Collector.merge_stats col) snaps;
  let stamp = Collector.executions col in
  List.iter
    (fun (b : Sresult.bug) ->
      Collector.absorb_bug col { b with Sresult.execution = stamp })
    (List.sort
       (fun (a : Sresult.bug) (b : Sresult.bug) ->
         compare (a.preemptions, a.schedule, a.key)
           (b.preemptions, b.schedule, b.key))
       (List.concat_map Collector.snapshot_bugs snaps))

(* A mid-round checkpoint: the master as it stood at the round's start
   ([round_start]) plus the results merged so far. *)
let save_partial ses ~round_start snaps f =
  if ses.ckpt <> None then begin
    let scratch = Collector.restore ses.workers round_start in
    merge scratch snaps;
    save ses scratch f
  end

let finish ses =
  let res = Collector.result ses.master ~strategy:ses.strategy in
  if Icb_obs.Emit.enabled ses.emit then
    Icb_obs.Emit.emit ses.emit
      (Icb_obs.Event.Run_finished
         {
           executions = res.Sresult.executions;
           states = res.Sresult.distinct_states;
           bugs = List.length res.Sresult.bugs;
           complete = res.Sresult.complete;
           stop_reason =
             Option.map Sresult.stop_reason_string res.Sresult.stop_reason;
         });
  res

(* A worker's (or a batch's) totals for the round, at the barrier. *)
let worker_stats emit i sn =
  if Icb_obs.Emit.enabled emit then
    Icb_obs.Emit.emit emit
      (Icb_obs.Event.Worker_stats
         {
           stats_for = i;
           executions = Collector.snapshot_executions sn;
           steps = Collector.snapshot_steps sn;
           bugs = List.length (Collector.snapshot_bugs sn);
         })

(* One work item, the step every runner (and a distributed worker)
   repeats: [expand] (a worker's [S.expand e w]) between [Item_started]
   and [Item_finished]. *)
let expand_item emit expand ctx it =
  let col = ctx.Strategy.c_col in
  if not (Icb_obs.Emit.enabled emit) then expand ctx it
  else begin
    let execs0 = Collector.executions col in
    let steps0 = Collector.total_steps col in
    Icb_obs.Emit.emit emit
      (Icb_obs.Event.Item_started
         {
           prefix = Strategy.prefix_length it.Strategy.i_sched;
           payload = it.Strategy.i_payload;
         });
    let t0 = Unix.gettimeofday () in
    expand ctx it;
    Icb_obs.Emit.emit emit
      (Icb_obs.Event.Item_finished
         {
           seconds = Unix.gettimeofday () -. t0;
           executions = Collector.executions col - execs0;
           steps = Collector.total_steps col - steps0;
         })
  end;
  (* one that gave up ({!Collector.overdue}) runs again from its start;
     its runner drops the items it deferred *)
  if Collector.gave_up col then
    ctx.Strategy.c_push { it with Strategy.i_state = None }

(* --- the round loop ------------------------------------------------------ *)

(* How a runner's round ended: every item ran (the next round's items,
   as deferred), or a limit stopped it (the stop reason is in the
   master).  A stopped round's frontier — the unrun work and the next
   round, as checkpoint prefixes — is built only if a checkpoint is
   written. *)
type 's outcome =
  | Drained of 's Strategy.item list
  | Stopped of (unit -> (int list * int) list * (int list * int) list)

(* How a round merged at a barrier (pool, coordinator) ends: a stop
   leaves [work ()] unrun; a drained round adds one point to the growth
   curve, which only the serial master records per execution. *)
let merged master stop ~work ~next =
  match stop with
  | Some r ->
    Collector.note_stop master r;
    Stopped (fun () -> (work (), strip_items next))
  | None ->
    Collector.mark_growth master;
    Drained next

let rounds (type s w) ses (module E : Engine.S with type state = s)
    (module S : Strategy.S with type state = s and type wstate = w)
    ~(wstates : w array)
    (run_round : s Strategy.item list -> carry:s Strategy.item list -> s outcome)
    =
  let master = ses.master in
  let checkpoint frontier =
    save ses master (fun () ->
        let work, next = frontier () in
        S.to_prefixes ~wstates ~work ~next)
  in
  if Icb_obs.Emit.enabled ses.emit then
    Icb_obs.Emit.emit ses.emit
      (Icb_obs.Event.Run_started
         {
           strategy = ses.strategy;
           domains = ses.domains;
           resumed = ses.resume <> None;
         });
  let rec loop work carry =
    let n = List.length work in
    Collector.note_frontier master n;
    if Icb_obs.Emit.enabled ses.emit then
      Icb_obs.Emit.emit ses.emit
        (Icb_obs.Event.Bound_started { bound = S.round (); items = n });
    let outcome = run_round work ~carry in
    ses.round_done ();
    match outcome with
    | Stopped frontier -> checkpoint frontier
    | Drained next -> (
      match S.after_round master ~wstates ~deferred:next with
      | `Complete ->
        Collector.set_complete master;
        checkpoint (fun () -> ([], []))
      | `Bounded ->
        (* the strategy's own horizon: save the deferred frontier so a
           later resume (e.g. with a higher bound) can pick it up *)
        checkpoint (fun () -> ([], strip_items next))
      | `Round items -> loop items [])
  in
  (* The batched-replay round: restored items carry no states, so sort
     them — lexicographic order groups the frontier by longest common
     prefix, and each materialization restores the previous one's path.
     The round's result is a multiset, insensitive to this order. *)
  let work, carry =
    match ses.resume with
    | Some f ->
      let work, carry = S.of_prefixes master f in
      (sorted_items (List.map of_prefix work), List.map of_prefix carry)
    | None -> (S.roots (module E) wstates.(0) master, [])
  in
  (* Totals that already meet a limit, restored or recorded by [roots],
     stop the run before its first item (a restored bug counts under
     stop_at_first_bug).  Even an empty resumed frontier goes through
     the round loop: a kill can land at a round boundary where the
     strategy still owes rounds (iterative deepening with truncations
     pending, a sealed bound owing its `Bounded verdict), which
     [after_round] re-derives from the restored params. *)
  match (Collector.limit_reached master, work) with
  | Some r, _ ->
    Collector.note_stop master r;
    checkpoint (fun () -> (strip_items work, strip_items carry))
  | None, [] when ses.resume = None ->
    (* a trivial program: [roots] recorded its only execution *)
    Collector.set_complete master;
    checkpoint (fun () -> ([], []))
  | None, _ -> loop work carry

(* --- the serial runner --------------------------------------------------- *)

(* One worker draining a round as a pool worker drains its deque, or
   best-first for a strategy that ranks its items.  After each item it
   applies the limits to the master's totals; a stopped round's frontier
   is what is still queued and deferred. *)
let serial (type s w) ses (module E : Engine.S with type state = s)
    (module S : Strategy.S with type state = s and type wstate = w)
    ~(wstates : w array) ~(mz : s Search_core.materializer) =
  let master = ses.master in
  let expand = S.expand (module E) wstates.(0) in
  (* A prefix this run took and witnessed that no longer replays is a
     nondeterministic program, recorded as a bug like any engine crash.
     A resumed prefix carries no witness: if it no longer replays, the
     checkpoint belongs to a different (or nondeterministic) program —
     surface it, don't guess. *)
  let materialize it =
    match mz.Search_core.mz_run it with
    | Ok st -> Some st
    | Error (st, t, exn) when it.Strategy.i_witness <> Strategy.no_witness ->
      Search_core.record_crash (module E) master st t exn;
      None
    | Error (_, _, exn) ->
      invalid_arg
        (Printf.sprintf
           "Explore.resume: a checkpointed schedule no longer replays \
            (%s); the checkpoint belongs to a different or \
            nondeterministic program"
           (Printexc.to_string exn))
  in
  let sq =
    match S.rank with
    | None -> deque ~stay:mz.Search_core.mz_stay
    | Some rank ->
      (* a rank needs the item's state: an item keeps the one it arrives
         with, even with the replay cache off, and a resumed one is
         materialized before insertion, or dropped if its prefix failed
         (already recorded) *)
      rank_queue ~rank:(rank (module E)) ~prep:(fun it ->
          if it.Strategy.i_state <> None then Some it
          else
            Option.map
              (fun st -> { it with Strategy.i_state = Some st })
              (materialize it))
  in
  (* [deferred]: the next round's items from finished items, newest
     first.  [pending]: the item in flight's deferrals, newest first,
     until it ends.  Then they are committed newest first, so the next
     round takes each item's deepest preemption point first, as
     Algorithm 1's recursion does. *)
  let deferred = ref [] and pending = ref [] in
  let ctx =
    {
      Strategy.c_col = master;
      c_push = sq.sq_push;
      c_defer = (fun it -> pending := mz.Search_core.mz_move it :: !pending);
      c_materialize = materialize;
    }
  in
  let periodic () =
    match ses.ckpt with
    | Some ctl when Collector.executions master - ctl.ck_last >= ctl.ck_every
      ->
      save ses master (fun () ->
          S.to_prefixes ~wstates
            ~work:(strip_items (sq.sq_items ()))
            ~next:(strip_items (List.rev !deferred)))
    | Some _ | None -> ()
  in
  (* whether a limit stopped the round *)
  let rec drain () =
    match sq.sq_pop () with
    | None -> false
    | Some it -> (
      expand_item ses.emit expand ctx it;
      if Collector.gave_up master then pending := [];
      deferred := List.rev_append !pending !deferred;
      pending := [];
      match Collector.limit_reached master with
      | Some r ->
        Collector.note_stop master r;
        true
      | None ->
        periodic ();
        drain ())
  in
  fun items ~carry ->
    deferred := List.rev_map mz.Search_core.mz_move carry;
    sq.sq_seed items;
    if drain () then
      Stopped
        (fun () ->
          (strip_items (sq.sq_items ()), strip_items (List.rev !deferred)))
    else begin
      let next = List.rev !deferred in
      deferred := [];
      Drained next
    end

(* --- the domain pool ----------------------------------------------------- *)

(* A round's items are sorted and dealt in contiguous chunks to
   per-worker deques; idle workers steal from random victims;
   current-round follow-ups ([c_push]) go to the front of the pushing
   worker's own deque, next-round items accumulate per worker.  At the
   barrier the master merges worker results in worker order (see
   {!merge}) and sorts the next round's items — so the merged result is
   independent of worker count and timing for any strategy whose
   per-item work is a function of the item alone (docs/PARALLEL.md).
   Stopping is cooperative and item-granular: a per-execution hook
   aggregates global counters, applies {!Collector.limit_hit} and sets a
   stop flag, which keeps the no-duplicate resume guarantee.  A periodic
   checkpoint that falls due ends a leg of the round the same way: every
   worker stops at its next item boundary and is joined, the checkpoint
   is written from the quiescent deques and collectors, and the next leg
   runs what the deques still hold. *)
let pool (type s w) ses (engs : (module Engine.S with type state = s) array)
    (module S : Strategy.S with type state = s and type wstate = w)
    ~(wstates : w array) ~tel ~(mzs : s Search_core.materializer array) =
  let domains = Array.length engs in
  let master = ses.master in
  (* every deque is empty between rounds: a round ends only once all
     drained, or the run ends with it *)
  let deques : s Strategy.item Dq.t array =
    Array.init domains (fun _ -> Dq.create ())
  in
  let rngs =
    let base = Icb_util.Rng.create 0x1CBD0E5L in
    Array.init domains (fun _ -> Icb_util.Rng.split base)
  in
  let user_cb_m = Mutex.create () in
  fun work ~carry ->
    let work = List.map mzs.(0).Search_core.mz_move (sorted_items work) in
    (* Batched replay: the sort above is lexicographic on schedules, i.e.
       the round is grouped by longest common prefix.  Shard it in
       contiguous chunks (not round-robin) so each worker's run of items
       shares prefixes and each materialization restores the previous
       one's path; the barrier merge is independent of the assignment,
       and the assignment itself stays deterministic. *)
    let n_work = List.length work in
    let chunk = max 1 ((n_work + domains - 1) / domains) in
    List.iteri
      (fun k it -> Dq.push_back deques.(min (domains - 1) (k / chunk)) it)
      work;
    let round_start = Collector.snapshot master in
    let base_execs = Collector.executions master in
    let base_states = Collector.seen_states master in
    let base_steps = Collector.total_steps master in
    let base_bugs = Collector.bug_count master in
    let stop : Sresult.stop_reason option Atomic.t = Atomic.make None in
    let failed : exn option Atomic.t = Atomic.make None in
    let request_stop r = ignore (Atomic.compare_and_set stop None (Some r)) in
    (* Round-wide counters for limit enforcement and user progress;
       states and steps are sums of per-worker increments, so the state
       count over-approximates the distinct total (duplicates across
       workers) — the exact union is computed at the barrier. *)
    let g_execs = Atomic.make 0
    and g_states = Atomic.make 0
    and g_steps = Atomic.make 0
    and g_bugs = Atomic.make 0 in
    (* Workers whose deque drained spin while a peer still expands an
       item: the peer may push more current-round work their way. *)
    let busy = Atomic.make 0 in
    (* a periodic checkpoint is due: the leg ends *)
    let due = Atomic.make false in
    let emits =
      Array.init domains (fun i ->
          match tel with
          | None -> (Icb_obs.Emit.null, fun () -> ())
          | Some t -> Icb_obs.Telemetry.buffered t ~worker:i)
    in
    let nexts = Array.init domains (fun _ -> ref []) in
    (* The per-execution hook installed in every worker's collector: bump
       the round-wide counters, apply the caller's limits by setting the
       stop flag, mark a periodic checkpoint due, and relay aggregated
       progress to the caller's own hook. *)
    let hook cell =
      let prev_states = ref 0 and prev_steps = ref 0 and prev_bugs = ref 0 in
      fun (p : Collector.progress) ->
        let lcol = Option.get !cell in
        let execs = 1 + Atomic.fetch_and_add g_execs 1 in
        let ds = p.Collector.p_states - !prev_states in
        prev_states := p.Collector.p_states;
        let states = ds + Atomic.fetch_and_add g_states ds in
        let steps_now = Collector.total_steps lcol in
        let dst = steps_now - !prev_steps in
        prev_steps := steps_now;
        let steps = dst + Atomic.fetch_and_add g_steps dst in
        let db = p.Collector.p_bugs - !prev_bugs in
        prev_bugs := p.Collector.p_bugs;
        let bugs = db + Atomic.fetch_and_add g_bugs db in
        let total_execs = base_execs + execs in
        (match
           Collector.limit_hit ses.options ~executions:total_execs
             ~states:(base_states + states) ~steps:(base_steps + steps)
             ~bugs:(base_bugs + bugs)
         with
        | Some r -> request_stop r
        | None -> ());
        (match ses.ckpt with
        | Some ctl when total_execs - ctl.ck_last >= ctl.ck_every ->
          Atomic.set due true
        | Some _ | None -> ());
        match ses.options.Collector.on_progress with
        | None -> ()
        | Some f ->
          Mutex.protect user_cb_m (fun () ->
              f
                {
                  Collector.p_executions = total_execs;
                  p_states = base_states + states;
                  p_bugs = base_bugs + bugs;
                  p_elapsed = Collector.elapsed master;
                  p_bound = Some (S.round ());
                  p_frontier = Some n_work;
                })
    in
    let lcols =
      Array.init domains (fun i ->
          let cell = ref None in
          let c =
            Collector.create
              {
                ses.workers with
                Collector.on_progress = Some (hook cell);
                events = fst emits.(i);
              }
          in
          cell := Some c;
          c)
    in
    (* Once every worker has been joined: the items the deques still
       hold, sorted, each handed off in place by its domain's
       materializer (the next leg runs on new domains), and the next
       round's. *)
    let queued () =
      sorted_items
        (List.concat
           (Array.to_list
              (Array.mapi
                 (fun i q -> Dq.hand_off q mzs.(i).Search_core.mz_move)
                 deques)))
    in
    let next () =
      sorted_items (carry @ List.concat_map ( ! ) (Array.to_list nexts))
    in
    let worker i () =
      let (module E : Engine.S with type state = s) = engs.(i) in
      let lcol = lcols.(i) in
      let expand = S.expand (module E) wstates.(i) in
      let mz = mzs.(i) in
      let ctx =
        {
          Strategy.c_col = lcol;
          (* own current-round follow-ups run depth-first from the front;
             they leave this domain only through [steal] *)
          c_push =
            (fun it -> Dq.push_front deques.(i) (mz.Search_core.mz_stay it));
          c_defer =
            (fun it -> nexts.(i) := mz.Search_core.mz_move it :: !(nexts.(i)));
          c_materialize = Search_core.contained (module E) mz lcol;
        }
      in
      let take () =
        match Dq.pop deques.(i) with
        | Some _ as r -> r
        | None ->
          let start = Icb_util.Rng.int rngs.(i) domains in
          let rec go k =
            if k >= domains then None
            else
              let j = (start + k) mod domains in
              if j = i then go (k + 1)
              else
                match Dq.steal deques.(j) with
                | Some it -> Some (mz.Search_core.mz_move it)
                | None -> go (k + 1)
          in
          go 0
      in
      let rec loop () =
        if
          Atomic.get stop = None
          && Atomic.get failed = None
          && not (Atomic.get due)
        then
          match take () with
          | Some it ->
            let deferred = !(nexts.(i)) in
            Atomic.incr busy;
            (match expand_item (fst emits.(i)) expand ctx it with
            | () -> Atomic.decr busy
            | exception e ->
              Atomic.decr busy;
              raise e);
            if Collector.gave_up lcol then nexts.(i) := deferred;
            (* an item that ended no execution did not reach the hook; a
               limit the worker's own totals meet, the round's meet too *)
            Option.iter request_stop (Collector.limit_reached lcol);
            loop ()
          | None ->
            if Atomic.get busy > 0 then begin
              (* a peer is mid-item and may push work this way *)
              Domain.cpu_relax ();
              loop ()
            end
      in
      try loop ()
      with exn -> ignore (Atomic.compare_and_set failed None (Some exn))
    in
    (* A leg runs the workers until the round drains, a limit stops it
       or a checkpoint falls due, which is written between legs. *)
    let rec legs () =
      let doms = Array.init domains (fun i -> Domain.spawn (worker i)) in
      Array.iter Domain.join doms;
      (match Atomic.get failed with Some exn -> raise exn | None -> ());
      if Atomic.get due && Atomic.get stop = None then begin
        let work = queued () in
        save_partial ses ~round_start
          (Array.to_list (Array.map Collector.snapshot lcols))
          (fun () ->
            S.to_prefixes ~wstates ~work:(strip_items work)
              ~next:(strip_items (next ())));
        Atomic.set due false;
        if work <> [] then legs ()
      end
    in
    legs ();
    let snaps = Array.map Collector.snapshot lcols in
    merge master (Array.to_list snaps);
    (* telemetry: flush the worker streams in worker order — the merged
       trace is deterministic up to timestamps — then stamp each
       worker's round totals *)
    Array.iteri
      (fun i (_, flush) ->
        flush ();
        worker_stats ses.emit i snaps.(i))
      emits;
    merged master (Atomic.get stop)
      ~work:(fun () -> strip_items (queued ()))
      ~next:(next ())

(* --- entry --------------------------------------------------------------- *)

(* [replay_cache = false] is the debugging escape hatch: every hand-off
   drops the item's state and every prefix replays from the root, except
   in the serial runner's ranked queue (most-enabled), whose items keep
   the states they are ranked by.
   [share_states] is ignored; it is kept only for callers that still pass
   it.  Whether a state may cross domains is the engine's to say, through
   its snapshot capability ({!Search_core.materializer}). *)
let run (type s) (engines : int -> (module Engine.S with type state = s))
    ?options ?checkpoint_out ?checkpoint_every ?checkpoint_meta ?resume_from
    ?telemetry ?share_states:(_ : bool option) ?(replay_cache = true)
    ?on_cache_stats ~domains (module S : Strategy.S with type state = s) :
    Sresult.t =
  if domains < 1 then invalid_arg "Driver.run: domains must be at least 1";
  if domains > 1 && not S.shardable then
    invalid_arg
      (Printf.sprintf
         "Driver.run: ~domains:%d — the %s frontier does not shard across \
          domains"
         domains S.name);
  if (checkpoint_out <> None || resume_from <> None) && not S.checkpointable
  then
    invalid_arg
      (Printf.sprintf
         "Driver.run: strategy %s does not support checkpoint/resume (its \
          frontier does not serialize)"
         S.name);
  (* Engine instances are created sequentially here, before any domain
     exists, and each is thereafter used by a single worker at a time. *)
  let engs = Array.init domains engines in
  let mzs =
    Array.map (fun e -> Search_core.materializer e ~cache:replay_cache) engs
  in
  let ses =
    session engs.(0) (module S) ?options ?checkpoint_out ?checkpoint_every
      ?checkpoint_meta ?resume_from ?telemetry ~domains ()
  in
  let wstates = Array.init domains (fun _ -> S.wstate ()) in
  rounds ses engs.(0) (module S) ~wstates
    (if domains = 1 then serial ses engs.(0) (module S) ~wstates ~mz:mzs.(0)
     else pool ses engs (module S) ~wstates ~tel:telemetry ~mzs);
  let cstats = Replay_cache.zero () in
  Array.iter
    (fun mz -> Replay_cache.accum ~into:cstats mz.Search_core.mz_stats)
    mzs;
  (match on_cache_stats with None -> () | Some f -> f cstats);
  if Icb_obs.Emit.enabled ses.emit && mzs.(0).Search_core.mz_memo then
    Icb_obs.Emit.emit ses.emit
      (Icb_obs.Event.Cache_stats
         {
           hits = cstats.Replay_cache.hits;
           misses = cstats.Replay_cache.misses;
           steps_saved = cstats.Replay_cache.steps_saved;
           steps_replayed = cstats.Replay_cache.steps_replayed;
         });
  finish ses

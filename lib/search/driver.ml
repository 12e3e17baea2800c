(* The one round executor: [run] executes any {!Strategy.S} over any
   {!Engine.S}, serially ([domains = 1]) or across OCaml domains, with
   checkpoint/resume for every strategy whose frontier serializes; the
   distributed coordinator ([Icb_dist.Coord]) serves the same loop over
   sockets.  Three parts (docs/ALGORITHM.md, "Architecture"):

   - the run [session]: everything about a run that does not depend on
     how a round's items execute — resume validation, the master
     collector, checkpoint control and wall-clock stamps, the limit test,
     the barrier merge, and the run's closing event ([finish]);
   - the round loop ([rounds]): Algorithm 1's outer loop — emit the
     run's opening event, seed a fresh or resumed frontier, run a round,
     ask the strategy what comes next, and write the final checkpoint;
   - the round runners, which only execute one round's items and answer
     [Drained next] or [Stopped frontier]: the serial queue
     ([serial]), the domain pool ([pool]), and the coordinator's lease
     server. *)

(* A mutex-protected deque: the owner pushes and pops at the front (so a
   strategy's own follow-ups pop depth-first, keeping the frontier
   small), thieves steal from the back.  Contention is per-item and items
   are subtrees or whole walks, so a lock-free structure would buy
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

  (* Non-destructive read, for checkpoint assembly while workers are
     parked. *)
  let snapshot q = Mutex.protect q.m (fun () -> q.front @ List.rev q.back)
end

(* The serial round queue: one in-process queue honouring the strategy's
   discipline. *)
type 'a squeue = {
  sq_push : 'a -> unit;
  sq_seed : 'a list -> unit;  (* round items, in order *)
  sq_pop : unit -> 'a option;
  sq_items : unit -> 'a list; (* non-destructive, in pop order *)
}

let fifo_queue () =
  let q = Queue.create () in
  {
    sq_push = (fun x -> Queue.add x q);
    sq_seed = List.iter (fun x -> Queue.add x q);
    sq_pop = (fun () -> Queue.take_opt q);
    sq_items = (fun () -> List.rev (Queue.fold (fun acc x -> x :: acc) [] q));
  }

let lifo_queue () =
  let stack = ref [] in
  {
    sq_push = (fun x -> stack := x :: !stack);
    sq_seed = (fun xs -> stack := xs @ !stack);
    sq_pop =
      (fun () ->
        match !stack with
        | [] -> None
        | x :: rest ->
          stack := rest;
          Some x);
    sq_items = (fun () -> !stack);
  }

(* Best-first as a bucket queue (ranks are small non-negative ints —
   enabled-thread counts); highest bucket first, FIFO within a bucket. *)
let rank_queue (type a) ~(rank : a -> int) =
  let buckets : (int, a Queue.t) Hashtbl.t = Hashtbl.create 8 in
  let max_bucket = ref 0 in
  let push x =
    let n = max 0 (rank x) in
    let q =
      match Hashtbl.find_opt buckets n with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add buckets n q;
        q
    in
    Queue.add x q;
    max_bucket := max !max_bucket n
  in
  let pop () =
    let rec from n =
      if n < 0 then None
      else
        match Hashtbl.find_opt buckets n with
        | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
        | Some _ | None -> from (n - 1)
    in
    from !max_bucket
  in
  let items () =
    let acc = ref [] in
    for n = !max_bucket downto 0 do
      match Hashtbl.find_opt buckets n with
      | None -> ()
      | Some q -> Queue.iter (fun x -> acc := x :: !acc) q
    done;
    List.rev !acc
  in
  { sq_push = push; sq_seed = List.iter push; sq_pop = pop; sq_items = items }

let of_prefix (sched, payload) =
  { Strategy.i_sched = sched; i_payload = payload; i_state = None }

let sorted_items its =
  List.sort
    (fun a b ->
      compare
        (a.Strategy.i_sched, a.Strategy.i_payload)
        (b.Strategy.i_sched, b.Strategy.i_payload))
    its

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
      (* for worker-local collectors: the caller's semantic options
         (deadlock_is_error, terminal_states_only) without its limits,
         progress hook or events — they never raise [Collector.Stop];
         stopping is the session's {!limit_hit}, applied by the runner *)
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
      {
        options with
        Collector.max_executions = None;
        max_states = None;
        max_total_steps = None;
        deadline = None;
        stop_at_first_bug = false;
        on_progress = None;
        events = Icb_obs.Emit.null;
      };
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
   [col] in the given order, then absorb their bug candidates sorted, so
   the surviving representative of each key is independent of which
   worker found it first, with the discovery stamp forged to the
   cumulative execution count at the merge point. *)
let merge col snaps =
  List.iter (Collector.merge_stats col) snaps;
  let stamp = Collector.executions col in
  List.iter
    (fun (b : Sresult.bug) ->
      if not (Collector.has_bug col b.Sresult.key) then
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

(* The caller's limits against run totals, in one fixed order, so the
   recorded reason does not depend on the runner when several trip at
   once.  (The serial runner's master collector enforces them itself.) *)
let limit_hit (o : Collector.options) ~executions ~states ~steps ~bugs =
  match o with
  | { Collector.max_executions = Some l; _ } when executions >= l ->
    Some Sresult.Execution_limit
  | { max_states = Some l; _ } when states >= l -> Some Sresult.State_limit
  | { max_total_steps = Some l; _ } when steps >= l -> Some Sresult.Step_limit
  | { deadline = Some d; _ } when Unix.gettimeofday () >= d ->
    Some Sresult.Deadline_exceeded
  | { stop_at_first_bug = true; _ } when bugs > 0 -> Some Sresult.First_bug
  | _ -> None

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
  if not (Icb_obs.Emit.enabled emit) then expand ctx it
  else begin
    let col = ctx.Strategy.c_col in
    let execs0 = Collector.executions col in
    let steps0 = Collector.total_steps col in
    Icb_obs.Emit.emit emit
      (Icb_obs.Event.Item_started
         {
           prefix = List.length it.Strategy.i_sched;
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
  end

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
  try
    match ses.resume with
    | Some f ->
      (* Even an empty frontier goes through the round loop: a kill can
         land exactly at a round boundary, where work and deferred are
         both drained but the strategy still owes rounds (iterative
         deepening with truncations pending, a sealed bound owing its
         `Bounded verdict).  [after_round] re-derives the verdict from
         the restored params, so a genuinely finished checkpoint still
         concludes immediately.

         The batched-replay round: restored items carry no states, so
         sort them — lexicographic order groups the frontier by longest
         common prefix, and consecutive materializations hit the
         snapshot cache.  The round's result is a multiset, insensitive
         to this order. *)
      let work, carry = S.of_prefixes master f in
      loop (sorted_items (List.map of_prefix work)) (List.map of_prefix carry)
    | None -> (
      match S.roots (module E) wstates.(0) master with
      | [] ->
        (* a trivial program: [roots] recorded its only execution *)
        Collector.set_complete master
      | items -> loop items [])
  with Collector.Stop -> ()

(* --- the serial runner --------------------------------------------------- *)

(* One queue honouring the strategy's discipline.  Limits fire as
   [Collector.Stop] from inside an expansion; the runner then reports the
   remaining frontier, conservatively re-queuing the interrupted item (and
   rolling back the follow-up items it already deferred, so resume
   explores nothing twice) — except for strategies with atomic items
   interrupted exactly at their execution's end, whose resume is exact. *)
let serial (type s w) ses (module E : Engine.S with type state = s)
    (module S : Strategy.S with type state = s and type wstate = w)
    ~(wstates : w array)
    ~(rp : s Search_core.replayer) ~retain =
  let master = ses.master in
  let expand = S.expand (module E) wstates.(0) in
  (* Strict replay: a prefix that no longer replays means the checkpoint
     belongs to a different (or nondeterministic) program — surface it,
     don't guess.  (Prefixes generated by this very run always replay on a
     deterministic engine: they only contain steps that already succeeded
     once.) *)
  let materialize it =
    match rp.Search_core.rp_run it with
    | Ok st -> Some st
    | Error (_, _, exn) ->
      invalid_arg
        (Printf.sprintf
           "Explore.resume: a checkpointed schedule no longer replays \
            (%s); the checkpoint belongs to a different or \
            nondeterministic program"
           (Printexc.to_string exn))
  in
  (* [--no-cache]: drop the snapshot slot at every hand-off, restoring the
     pure stateless discipline — every item pays the full prefix replay. *)
  let keep it = if retain then it else { it with Strategy.i_state = None } in
  (* Under the [`Rank] discipline an item's priority needs its state;
     materialize before insertion. *)
  let prep it =
    match S.discipline with
    | `Rank when it.Strategy.i_state = None ->
      { it with Strategy.i_state = materialize it }
    | _ -> it
  in
  let sq =
    match S.discipline with
    | `Fifo -> fifo_queue ()
    | `Lifo -> lifo_queue ()
    | `Rank -> rank_queue ~rank:(fun it -> S.rank (module E) it)
  in
  let deferred = ref [] in
  let defer_len = ref 0 in
  let ctx =
    {
      Strategy.c_col = master;
      c_push = (fun it -> sq.sq_push (prep (keep it)));
      c_defer =
        (fun it ->
          deferred := keep it :: !deferred;
          incr defer_len);
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
  (* [Some in_flight] when a limit stopped the round *)
  let rec drain () =
    match sq.sq_pop () with
    | None -> None
    | Some it -> (
      let execs0 = Collector.executions master in
      let defers0 = !defer_len in
      match expand_item ses.emit expand ctx it with
      | () ->
        periodic ();
        drain ()
      | exception Collector.Stop ->
        (* An item that records exactly one execution, interrupted at
           that execution's end, is already done: resume repeats
           nothing.  Otherwise re-queue it — and roll back the items it
           already deferred, which its re-run will defer again. *)
        if S.atomic_items && Collector.executions master > execs0 then
          Some []
        else begin
          let rec drop n l =
            if n <= 0 then l
            else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
          in
          deferred := drop (!defer_len - defers0) !deferred;
          defer_len := defers0;
          Some [ it ]
        end)
  in
  fun items ~carry ->
    List.iter ctx.Strategy.c_defer carry;
    sq.sq_seed (List.map (fun it -> prep (keep it)) items);
    match drain () with
    | None ->
      let next = List.rev !deferred in
      deferred := [];
      defer_len := 0;
      Drained next
    | Some in_flight ->
      Stopped
        (fun () ->
          ( strip_items (in_flight @ sq.sq_items ()),
            strip_items (List.rev !deferred) ))

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
   aggregates global counters, applies {!limit_hit} and sets a stop flag,
   which keeps the no-duplicate resume guarantee.  Mid-round periodic
   checkpoints use the pause protocol: every live worker parks at its
   next item boundary and the last one to park saves from the quiescent
   state. *)
let pool (type s w) ses (engs : (module Engine.S with type state = s) array)
    (module S : Strategy.S with type state = s and type wstate = w)
    ~(wstates : w array) ~tel
    ~(rps : s Search_core.replayer array) ~retain =
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
  let strip it = if retain then it else { it with Strategy.i_state = None } in
  fun work ~carry ->
    let work = sorted_items work in
    let work = if retain then work else List.map strip work in
    (* Batched replay: the sort above is lexicographic on schedules, i.e.
       the round is grouped by longest common prefix.  Shard it in
       contiguous chunks (not round-robin) so each worker's run of items
       shares prefixes and consecutive materializations hit its snapshot
       cache; the barrier merge is independent of the assignment, and the
       assignment itself stays deterministic. *)
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
    (* Pause/checkpoint protocol state; [parked] and [running] are
       guarded by [pm]. *)
    let pause = Atomic.make false in
    let pm = Mutex.create () in
    let pc = Condition.create () in
    let parked = ref 0 in
    let running = ref domains in
    let emits =
      Array.init domains (fun i ->
          match tel with
          | None -> (Icb_obs.Emit.null, fun () -> ())
          | Some t -> Icb_obs.Telemetry.buffered t ~worker:i)
    in
    let nexts = Array.init domains (fun _ -> ref []) in
    (* The per-execution hook installed in every worker's collector: bump
       the round-wide counters, apply the caller's limits by setting the
       stop flag, and relay aggregated progress to the caller's own
       hook. *)
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
           limit_hit ses.options ~executions:total_execs
             ~states:(base_states + states) ~steps:(base_steps + steps)
             ~bugs:(base_bugs + bugs)
         with
        | Some r -> request_stop r
        | None -> ());
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
    (* Each worker collector keeps its least witness per bug key, so
       which items work stealing handed a worker cannot change the
       witness the barrier picks. *)
    let lcols =
      Array.init domains (fun i ->
          let cell = ref None in
          let c =
            Collector.create ~least_witness:true
              {
                ses.workers with
                Collector.on_progress = Some (hook cell);
                events = fst emits.(i);
              }
          in
          cell := Some c;
          c)
    in
    (* Mid-round checkpoint, run by the last worker to park (all other
       live workers are blocked on [pc], so their collectors, next-lists,
       deques and worker states are quiescent; the mutex hand-offs make
       their writes visible). *)
    let assemble_and_save () =
      let queued =
        Array.fold_left (fun acc q -> acc @ Dq.snapshot q) [] deques
      in
      let deferred = Array.fold_left (fun acc r -> acc @ !r) [] nexts in
      save_partial ses ~round_start
        (Array.to_list (Array.map Collector.snapshot lcols))
        (fun () ->
          S.to_prefixes ~wstates
            ~work:(strip_items (sorted_items queued))
            ~next:(strip_items (sorted_items (carry @ deferred))))
    in
    (* Called under [pm] by the worker that completes the quorum. *)
    let release () =
      assemble_and_save ();
      Atomic.set pause false;
      Condition.broadcast pc
    in
    let park () =
      Mutex.protect pm (fun () ->
          if Atomic.get pause then begin
            incr parked;
            if !parked = !running then release ()
            else
              while Atomic.get pause do
                Condition.wait pc pm
              done;
            decr parked
          end)
    in
    (* A worker that runs out of work may be the one whose parking the
       others are waiting for; complete the quorum on the way out. *)
    let retire () =
      Mutex.protect pm (fun () ->
          decr running;
          if Atomic.get pause && !parked = !running then release ())
    in
    let maybe_request_ckpt () =
      match ses.ckpt with
      | Some ctl
        when Collector.snapshot_executions round_start + Atomic.get g_execs
             - ctl.ck_last
             >= ctl.ck_every ->
        Mutex.protect pm (fun () ->
            (* only between pauses: [parked] must have drained *)
            if (not (Atomic.get pause)) && !parked = 0 then
              Atomic.set pause true)
      | Some _ | None -> ()
    in
    let worker i () =
      let (module E : Engine.S with type state = s) = engs.(i) in
      let lcol = lcols.(i) in
      let expand = S.expand (module E) wstates.(i) in
      (* Materialization goes through the worker's replayer (snapshot
         cache when the engine offers it, from-the-root replay otherwise)
         and never touches the collector: the prefix's states were
         already counted by whoever deferred or checkpointed this item.
         A prefix that no longer replays means the program is
         nondeterministic (or the checkpoint is foreign); contain it as a
         replayable bug, like any other engine crash. *)
      let materialize it =
        match rps.(i).Search_core.rp_run it with
        | Ok st -> Some st
        | Error (st, t, exn) ->
          Search_core.record_crash (module E) lcol st t exn;
          None
      in
      let ctx =
        {
          Strategy.c_col = lcol;
          (* own current-round follow-ups run depth-first from the front;
             their states stay attached — they never leave this domain
             except via [steal], which strips them *)
          c_push = (fun it -> Dq.push_front deques.(i) it);
          c_defer = (fun it -> nexts.(i) := strip it :: !(nexts.(i)));
          c_materialize = materialize;
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
                | Some it -> Some (strip it)
                | None -> go (k + 1)
          in
          go 0
      in
      let rec loop () =
        if Atomic.get stop <> None || Atomic.get failed <> None then ()
        else begin
          if Atomic.get pause then park ();
          match take () with
          | Some it ->
            Atomic.incr busy;
            (match expand_item (fst emits.(i)) expand ctx it with
            | () -> Atomic.decr busy
            | exception e ->
              Atomic.decr busy;
              raise e);
            maybe_request_ckpt ();
            loop ()
          | None ->
            if Atomic.get busy > 0 then begin
              (* a peer is mid-item and may push work this way *)
              Domain.cpu_relax ();
              loop ()
            end
        end
      in
      (try loop ()
       with exn -> ignore (Atomic.compare_and_set failed None (Some exn)));
      retire ()
    in
    let doms = Array.init domains (fun i -> Domain.spawn (worker i)) in
    Array.iter Domain.join doms;
    (match Atomic.get failed with Some exn -> raise exn | None -> ());
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
      ~work:(fun () ->
        strip_items
          (sorted_items
             (Array.fold_left (fun acc q -> acc @ Dq.snapshot q) [] deques)))
      ~next:
        (sorted_items (carry @ Array.fold_left (fun acc r -> acc @ !r) [] nexts))

(* --- entry --------------------------------------------------------------- *)

let run (type s) (engines : int -> (module Engine.S with type state = s))
    ?options ?checkpoint_out ?checkpoint_every ?checkpoint_meta ?resume_from
    ?telemetry ?(share_states = false) ?(replay_cache = true) ?on_cache_stats
    ~domains (module S : Strategy.S with type state = s) : Sresult.t =
  if domains < 1 then invalid_arg "Driver.run: domains must be at least 1";
  if domains > 1 && not S.shardable then
    invalid_arg
      (Printf.sprintf
         "Driver.run: ~domains:%d — the %s frontier does not shard across \
          domains; strategies that do: icb, dfs, db:N, idfs:N, random, \
          pct:N, vb:N, tb:N, icb-vb:N"
         domains S.name);
  if (checkpoint_out <> None || resume_from <> None) && not S.checkpointable
  then
    invalid_arg
      (Printf.sprintf
         "Driver.run: strategy %s does not support checkpoint/resume \
          (supported: icb, dfs, db:N, idfs:N, random, pct:N, \
          most-enabled, vb:N, tb:N, icb-vb:N)"
         S.name);
  (* Engine instances are created sequentially here, before any domain
     exists, and each is thereafter used by a single worker at a time. *)
  let engs = Array.init domains engines in
  let has_snap =
    let (module E0 : Engine.S with type state = s) = engs.(0) in
    Option.is_some E0.snapshot
  in
  (* Replay-cache policy.  Serial mode retains the snapshot slot on every
     hand-off exactly as before (for any engine — the stateless engine's
     states hand their live run forward); parallel mode additionally
     shares states across domains whenever the engine certifies them as
     restorable snapshots (or the caller opted in explicitly).
     [replay_cache = false] is the debugging escape hatch: drop every
     snapshot, disable the per-worker caches, replay everything. *)
  let retain =
    replay_cache && (domains = 1 || share_states || has_snap)
  in
  let rps =
    Array.map
      (fun e -> Search_core.replayer e ~cache:replay_cache ())
      engs
  in
  let ses =
    session engs.(0) (module S) ?options ?checkpoint_out ?checkpoint_every
      ?checkpoint_meta ?resume_from ?telemetry ~domains ()
  in
  let wstates = Array.init domains (fun _ -> S.wstate ()) in
  rounds ses engs.(0) (module S) ~wstates
    (if domains = 1 then
       serial ses engs.(0) (module S) ~wstates ~rp:rps.(0) ~retain
     else pool ses engs (module S) ~wstates ~tel:telemetry ~rps ~retain);
  let cstats = Replay_cache.zero () in
  Array.iter
    (fun rp -> Replay_cache.accum ~into:cstats rp.Search_core.rp_stats)
    rps;
  (match on_cache_stats with None -> () | Some f -> f cstats);
  if Icb_obs.Emit.enabled ses.emit && replay_cache && has_snap then
    Icb_obs.Emit.emit ses.emit
      (Icb_obs.Event.Cache_stats
         {
           hits = cstats.Replay_cache.hits;
           misses = cstats.Replay_cache.misses;
           steps_saved = cstats.Replay_cache.steps_saved;
           steps_replayed = cstats.Replay_cache.steps_replayed;
         });
  finish ses

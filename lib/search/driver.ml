(* The one generic search driver: [run] executes any {!Strategy.S} over
   any {!Engine.S}, serially ([domains = 1]) or across OCaml domains,
   with checkpoint/resume for every strategy whose frontier serializes.
   [Explore.run] and [Parallel.run] are thin wrappers over this module.

   Serial mode processes the round's items through a queue honouring the
   strategy's discipline (FIFO, LIFO or best-first).  Limits fire as
   [Collector.Stop] from inside an expansion; the driver then checkpoints
   the remaining frontier, conservatively re-queuing the interrupted item
   (and rolling back the follow-up items it already deferred, so resume
   explores nothing twice) — except for strategies with atomic items
   interrupted exactly at their execution's end, whose resume is exact.

   Parallel mode is the determinism-preserving executor that previously
   lived in [Parallel] (see docs/PARALLEL.md), generalized from ICB's
   bounds to strategy rounds.  A round's items are sharded round-robin
   over per-worker deques; idle workers steal from random victims;
   current-round follow-ups ([c_push]) go to the front of the pushing
   worker's own deque, next-round items accumulate per worker.  At the
   round barrier the master folds worker statistics with commutative
   operations, absorbs bug candidates in sorted order with forged
   discovery stamps, sorts the next round's items, and asks the strategy
   what to do next — so the merged result is independent of worker count
   and timing for any strategy whose per-item work is a function of the
   item alone.  Stopping is cooperative and item-granular (workers carry
   no limits; a per-execution hook aggregates global counters and sets a
   stop flag), which keeps the no-duplicate resume guarantee.  Mid-round
   periodic checkpoints use the pause protocol: every live worker parks
   at its next item boundary and the last one to park assembles the
   checkpoint from the quiescent state. *)

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

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

  let clear q =
    with_lock q.m (fun () ->
        q.front <- [];
        q.back <- [])

  let push_back q x = with_lock q.m (fun () -> q.back <- x :: q.back)
  let push_front q x = with_lock q.m (fun () -> q.front <- x :: q.front)

  let pop q =
    with_lock q.m (fun () ->
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
    with_lock q.m (fun () ->
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
  let snapshot q = with_lock q.m (fun () -> q.front @ List.rev q.back)
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

(* Deterministic bug merge: sort candidates so the surviving
   representative of each key is independent of which worker found it
   first, and forge the discovery stamp to the cumulative execution count
   at the merge point. *)
let absorb_bugs col candidates =
  let candidates =
    List.sort
      (fun (a : Sresult.bug) (b : Sresult.bug) ->
        compare (a.preemptions, a.schedule, a.key)
          (b.preemptions, b.schedule, b.key))
      candidates
  in
  let stamp = Collector.executions col in
  List.iter
    (fun (b : Sresult.bug) ->
      if not (Collector.has_bug col b.Sresult.key) then
        Collector.absorb_bug col { b with Sresult.execution = stamp })
    candidates

let of_prefix (sched, payload) =
  { Strategy.i_sched = sched; i_payload = payload; i_state = None }

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

(* [stamp] (built in [run]) appends the fingerprint and the cumulative
   wall-clock timing params to every checkpoint's [v3_params]. *)

let cmp_item a b =
  compare
    (a.Strategy.i_sched, a.Strategy.i_payload)
    (b.Strategy.i_sched, b.Strategy.i_payload)

let sorted_items its = List.sort cmp_item its
let strip_items its = List.map Strategy.prefix_of its

(* --- serial execution ---------------------------------------------------- *)

let run_serial (type s) (module E : Engine.S with type state = s)
    (module S : Strategy.S with type state = s) ~stamp ~note_round_done ~emit
    ~(rp : s Search_core.replayer) ~retain master
    (ckpt : Search_core.ckpt_ctl option) resume_v3 =
  let w = S.wstate () in
  let wstates = [| w |] in
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
  let save ?(extra = []) ?next () =
    match ckpt with
    | None -> ()
    | Some ctl ->
      let next =
        match next with Some n -> n | None -> List.rev !deferred
      in
      let f =
        S.to_prefixes ~wstates
          ~work:(strip_items extra @ strip_items (sq.sq_items ()))
          ~next:(strip_items next)
      in
      Search_core.save_checkpoint master ctl ~strategy:S.name
        ~frontier:(Checkpoint.V3 (stamp f))
  in
  let periodic () =
    match ckpt with
    | None -> ()
    | Some ctl ->
      if Collector.executions master - ctl.ck_last >= ctl.ck_every then
        save ()
  in
  let rec drain () =
    match sq.sq_pop () with
    | None -> ()
    | Some it ->
      let execs0 = Collector.executions master in
      let steps0 = Collector.total_steps master in
      let defers0 = !defer_len in
      let item_t0 =
        if Icb_obs.Emit.enabled emit then begin
          Icb_obs.Emit.emit emit
            (Icb_obs.Event.Item_started
               {
                 prefix = List.length it.Strategy.i_sched;
                 payload = it.Strategy.i_payload;
               });
          Unix.gettimeofday ()
        end
        else 0.0
      in
      (try S.expand (module E) w ctx it
       with Collector.Stop ->
         (* An item that records exactly one execution, interrupted at
            that execution's end, is already done: resume repeats
            nothing.  Otherwise re-queue it — and roll back the items it
            already deferred, which its re-run will defer again. *)
         let exact =
           S.atomic_items && Collector.executions master > execs0
         in
         if not exact then begin
           let rec drop n l =
             if n <= 0 then l
             else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
           in
           deferred := drop (!defer_len - defers0) !deferred;
           defer_len := defers0
         end;
         save ~extra:(if exact then [] else [ it ]) ();
         raise Collector.Stop);
      if Icb_obs.Emit.enabled emit then
        Icb_obs.Emit.emit emit
          (Icb_obs.Event.Item_finished
             {
               seconds = Unix.gettimeofday () -. item_t0;
               executions = Collector.executions master - execs0;
               steps = Collector.total_steps master - steps0;
             });
      periodic ();
      drain ()
  in
  let rec rounds items =
    Collector.note_frontier master (List.length items);
    if Icb_obs.Emit.enabled emit then
      Icb_obs.Emit.emit emit
        (Icb_obs.Event.Bound_started
           { bound = S.round (); items = List.length items });
    sq.sq_seed (List.map (fun it -> prep (keep it)) items);
    drain ();
    let d = List.rev !deferred in
    deferred := [];
    defer_len := 0;
    note_round_done (S.round ());
    match S.after_round master ~wstates ~deferred:d with
    | `Complete ->
      Collector.set_complete master;
      save ~next:[] ()
    | `Bounded ->
      (* the strategy's own horizon: save the deferred frontier so a
         later resume (e.g. with a higher bound) can pick it up *)
      save ~next:d ()
    | `Round items' -> rounds items'
  in
  match resume_v3 with
  | Some f ->
    let work, carry = S.of_prefixes master f in
    List.iter (fun p -> ctx.Strategy.c_defer (of_prefix p)) carry;
    (* Even an empty frontier goes through the round loop: a kill can
       land exactly at a round boundary, where work and deferred are
       both drained but the strategy still owes rounds (iterative
       deepening with truncations pending, a sealed bound owing its
       `Bounded verdict).  [after_round] re-derives the verdict from
       the restored params, so a genuinely finished checkpoint still
       concludes immediately.

       The batched-replay round: restored items carry no states, so sort
       them — lexicographic order groups the frontier by longest common
       prefix, and consecutive materializations hit the snapshot cache.
       The round's result is a multiset, insensitive to this order. *)
    rounds (sorted_items (List.map of_prefix work))
  | None ->
    let items = S.roots (module E) w master in
    if items = [] then
      (* a trivial program: [roots] recorded its only execution *)
      Collector.set_complete master
    else rounds items

(* --- parallel execution -------------------------------------------------- *)

let run_parallel (type s)
    (engs : (module Engine.S with type state = s) array)
    (module S : Strategy.S with type state = s) ~stamp ~note_round_done ~tel
    ~emit ~options master (ckpt : Search_core.ckpt_ctl option) resume_v3
    ~(rps : s Search_core.replayer array) ~retain ~domains =
  (* Local collectors carry no limits and never raise [Collector.Stop]:
     stopping is decided globally by the progress hook below and honoured
     by workers at item boundaries.  Semantic options (deadlock_is_error,
     terminal_states_only) are kept.  Telemetry is re-installed per
     worker as a buffered emitter (below), never the master's direct
     one.  Each keeps its least witness per bug key, so which items work
     stealing handed a worker cannot change the witness the barrier
     picks. *)
  let stripped =
    {
      options with
      Collector.max_executions = None;
      max_states = None;
      max_total_steps = None;
      deadline = None;
      stop_at_first_bug = false;
      on_progress = None;
      events = Icb_obs.Emit.null;
    }
  in
  let deques : s Strategy.item Dq.t array =
    Array.init domains (fun _ -> Dq.create ())
  in
  let wstates = Array.init domains (fun _ -> S.wstate ()) in
  let rngs =
    let base = Icb_util.Rng.create 0x1CBD0E5L in
    Array.init domains (fun _ -> Icb_util.Rng.split base)
  in
  let stop : Sresult.stop_reason option Atomic.t = Atomic.make None in
  let failed : exn option Atomic.t = Atomic.make None in
  let request_stop r = ignore (Atomic.compare_and_set stop None (Some r)) in
  (* Per-round global counters for limit enforcement and user progress;
     states and steps are sums of per-worker increments, so the state
     count over-approximates the distinct total (duplicates across
     workers) — the exact union is computed at the barrier. *)
  let g_execs = Atomic.make 0
  and g_states = Atomic.make 0
  and g_steps = Atomic.make 0
  and g_bugs = Atomic.make 0 in
  (* Workers whose deque drained spin while a peer still expands an item:
     the peer may push more current-round work their way. *)
  let busy = Atomic.make 0 in
  (* Pause/checkpoint protocol state; [parked] and [running] are guarded
     by [pm]. *)
  let pause = Atomic.make false in
  let pm = Mutex.create () in
  let pc = Condition.create () in
  let parked = ref 0 in
  let running = ref 0 in
  let user_cb_m = Mutex.create () in
  (* Per-round context, published to workers before each spawn (and read
     back after join, or under [pm] during checkpoint assembly). *)
  let cur_lcols : Collector.t array ref = ref [||] in
  let cur_nexts : s Strategy.item list ref array ref = ref [||] in
  let cur_emits : (Icb_obs.Emit.t * (unit -> unit)) array ref = ref [||] in
  let cur_carry : s Strategy.item list ref = ref [] in
  let master_snap = ref (Collector.snapshot master) in
  let remaining_items () =
    Array.fold_left (fun acc q -> acc @ Dq.snapshot q) [] deques
  in
  let deferred_items () =
    Array.fold_left (fun acc r -> acc @ !r) [] !cur_nexts
  in
  let save_with col ~work ~next =
    match ckpt with
    | None -> ()
    | Some ctl ->
      Search_core.save_checkpoint col ctl ~strategy:S.name
        ~frontier:(Checkpoint.V3 (stamp (S.to_prefixes ~wstates ~work ~next)))
  in
  (* Mid-round checkpoint, run by the last worker to park (all other live
     workers are blocked on [pc], so their collectors, next-lists, deques
     and worker states are quiescent; the mutex hand-offs make their
     writes visible). *)
  let assemble_and_save () =
    match ckpt with
    | None -> ()
    | Some _ ->
      let scratch = Collector.restore stripped !master_snap in
      let candidates = ref [] in
      Array.iter
        (fun lcol ->
          let sn = Collector.snapshot lcol in
          Collector.merge_stats scratch sn;
          candidates := Collector.snapshot_bugs sn @ !candidates)
        !cur_lcols;
      absorb_bugs scratch !candidates;
      let work = strip_items (sorted_items (remaining_items ())) in
      let next =
        strip_items (sorted_items (!cur_carry @ deferred_items ()))
      in
      save_with scratch ~work ~next
  in
  let park () =
    with_lock pm (fun () ->
        if Atomic.get pause then begin
          incr parked;
          if !parked = !running then begin
            assemble_and_save ();
            Atomic.set pause false;
            Condition.broadcast pc
          end
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
    with_lock pm (fun () ->
        decr running;
        if Atomic.get pause && !parked = !running then begin
          assemble_and_save ();
          Atomic.set pause false;
          Condition.broadcast pc
        end)
  in
  let maybe_request_ckpt () =
    match ckpt with
    | None -> ()
    | Some ctl ->
      let total =
        Collector.snapshot_executions !master_snap + Atomic.get g_execs
      in
      if total - ctl.ck_last >= ctl.ck_every then
        with_lock pm (fun () ->
            (* only between pauses: [parked] must have drained *)
            if (not (Atomic.get pause)) && !parked = 0 then
              Atomic.set pause true)
  in
  (* The per-execution hook installed in every worker's collector: bump
     the global counters, enforce the caller's limits by setting the stop
     flag, and relay aggregated progress to the caller's own hook. *)
  let mk_hook cell ~base_execs ~base_states ~base_steps ~base_bugs ~frontier =
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
      (match options.Collector.max_executions with
      | Some l when total_execs >= l -> request_stop Sresult.Execution_limit
      | Some _ | None -> ());
      (match options.Collector.max_states with
      | Some l when base_states + states >= l ->
        request_stop Sresult.State_limit
      | Some _ | None -> ());
      (match options.Collector.max_total_steps with
      | Some l when base_steps + steps >= l -> request_stop Sresult.Step_limit
      | Some _ | None -> ());
      (match options.Collector.deadline with
      | Some d when Unix.gettimeofday () >= d ->
        request_stop Sresult.Deadline_exceeded
      | Some _ | None -> ());
      if options.Collector.stop_at_first_bug && base_bugs + bugs > 0 then
        request_stop Sresult.First_bug;
      match options.Collector.on_progress with
      | None -> ()
      | Some f ->
        with_lock user_cb_m (fun () ->
            f
              {
                Collector.p_executions = total_execs;
                p_states = base_states + states;
                p_bugs = base_bugs + bugs;
                p_elapsed = Collector.elapsed master;
                p_bound = Some (S.round ());
                p_frontier = Some frontier;
              })
  in
  let worker i () =
    let (module E : Engine.S with type state = s) = engs.(i) in
    let lcol = !cur_lcols.(i) in
    let w_emit = fst !cur_emits.(i) in
    let next = !cur_nexts.(i) in
    let w = wstates.(i) in
    let rng = rngs.(i) in
    (* Materialization goes through the worker's replayer (snapshot cache
       when the engine offers it, from-the-root replay otherwise) and
       never touches the collector: the prefix's states were already
       counted by whoever deferred or checkpointed this item.  A prefix
       that no longer replays means the program is nondeterministic (or
       the checkpoint is foreign); contain it as a replayable bug, like
       any other engine crash. *)
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
        c_defer =
          (fun it ->
            next :=
              (if retain then it
               else { it with Strategy.i_state = None })
              :: !next);
        c_materialize = materialize;
      }
    in
    let take () =
      match Dq.pop deques.(i) with
      | Some _ as r -> r
      | None ->
        if domains = 1 then None
        else begin
          let start = Icb_util.Rng.int rng domains in
          let rec go k =
            if k >= domains then None
            else
              let j = (start + k) mod domains in
              if j = i then go (k + 1)
              else
                match Dq.steal deques.(j) with
                | Some it ->
                  Some
                    (if retain then it
                     else { it with Strategy.i_state = None })
                | None -> go (k + 1)
          in
          go 0
        end
    in
    let rec loop () =
      if Atomic.get stop <> None || Atomic.get failed <> None then ()
      else begin
        if Atomic.get pause then park ();
        match take () with
        | Some it ->
          Atomic.incr busy;
          let execs0 = Collector.executions lcol in
          let steps0 = Collector.total_steps lcol in
          let item_t0 =
            if Icb_obs.Emit.enabled w_emit then begin
              Icb_obs.Emit.emit w_emit
                (Icb_obs.Event.Item_started
                   {
                     prefix = List.length it.Strategy.i_sched;
                     payload = it.Strategy.i_payload;
                   });
              Unix.gettimeofday ()
            end
            else 0.0
          in
          (match S.expand (module E) w ctx it with
          | () -> Atomic.decr busy
          | exception e ->
            Atomic.decr busy;
            raise e);
          if Icb_obs.Emit.enabled w_emit then
            Icb_obs.Emit.emit w_emit
              (Icb_obs.Event.Item_finished
                 {
                   seconds = Unix.gettimeofday () -. item_t0;
                   executions = Collector.executions lcol - execs0;
                   steps = Collector.total_steps lcol - steps0;
                 });
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
  (* Drain one round; returns the (sorted) next round's items and the
     stop flag as observed after the barrier. *)
  let run_round ~work ~carry =
    Array.iter Dq.clear deques;
    let work = sorted_items work in
    let work =
      if retain then work
      else List.map (fun it -> { it with Strategy.i_state = None }) work
    in
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
    Collector.note_frontier master n_work;
    if Icb_obs.Emit.enabled emit then
      Icb_obs.Emit.emit emit
        (Icb_obs.Event.Bound_started { bound = S.round (); items = n_work });
    cur_carry := carry;
    master_snap := Collector.snapshot master;
    let base_execs = Collector.executions master in
    let base_states = Collector.seen_states master in
    let base_steps = Collector.total_steps master in
    let base_bugs = Collector.bug_count master in
    Atomic.set g_execs 0;
    Atomic.set g_states 0;
    Atomic.set g_steps 0;
    Atomic.set g_bugs 0;
    Atomic.set busy 0;
    Atomic.set pause false;
    parked := 0;
    running := domains;
    let emits =
      Array.init domains (fun i ->
          match tel with
          | None -> (Icb_obs.Emit.null, fun () -> ())
          | Some t -> Icb_obs.Telemetry.buffered t ~worker:i)
    in
    cur_emits := emits;
    let lcols =
      Array.init domains (fun i ->
          let cell = ref None in
          let hook =
            mk_hook cell ~base_execs ~base_states ~base_steps ~base_bugs
              ~frontier:n_work
          in
          let c =
            Collector.create ~least_witness:true
              {
                stripped with
                Collector.on_progress = Some hook;
                events = fst emits.(i);
              }
          in
          cell := Some c;
          c)
    in
    cur_lcols := lcols;
    let nexts = Array.init domains (fun _ -> ref []) in
    cur_nexts := nexts;
    let doms = Array.init domains (fun i -> Domain.spawn (worker i)) in
    Array.iter Domain.join doms;
    (match Atomic.get failed with Some exn -> raise exn | None -> ());
    (* the deterministic barrier merge *)
    let snaps = Array.map Collector.snapshot lcols in
    let candidates = ref [] in
    Array.iter
      (fun sn ->
        Collector.merge_stats master sn;
        candidates := Collector.snapshot_bugs sn @ !candidates)
      snaps;
    absorb_bugs master !candidates;
    (* telemetry: flush the worker streams in worker order — the merged
       trace is deterministic up to timestamps — then stamp each
       worker's round totals *)
    Array.iteri
      (fun i (_, flush) ->
        flush ();
        if Icb_obs.Emit.enabled emit then
          Icb_obs.Emit.emit emit
            (Icb_obs.Event.Worker_stats
               {
                 stats_for = i;
                 executions = Collector.snapshot_executions snaps.(i);
                 steps = Collector.snapshot_steps snaps.(i);
                 bugs = List.length (Collector.snapshot_bugs snaps.(i));
               }))
      emits;
    let next_items =
      sorted_items (carry @ Array.fold_left (fun acc r -> acc @ !r) [] nexts)
    in
    (next_items, Atomic.get stop)
  in
  let rec drive work carry =
    (* An empty frontier still runs the (trivial) round: a resumed
       checkpoint killed exactly at a round boundary owes [after_round]
       the decision — deepen, seal off as `Bounded, or conclude. *)
    let next_items, stop_r = run_round ~work ~carry in
    note_round_done (S.round ());
    match stop_r with
    | Some r ->
      Collector.note_stop master r;
      let remaining = strip_items (sorted_items (remaining_items ())) in
      save_with master ~work:remaining ~next:(strip_items next_items)
    | None -> (
      Collector.mark_growth master;
      match S.after_round master ~wstates ~deferred:next_items with
      | `Complete ->
        Collector.set_complete master;
        save_with master ~work:[] ~next:[]
      | `Bounded -> save_with master ~work:[] ~next:(strip_items next_items)
      | `Round items -> drive items [])
  in
  match resume_v3 with
  | Some f ->
    let work, carry = S.of_prefixes master f in
    drive (List.map of_prefix work) (List.map of_prefix carry)
  | None ->
    let (module E0 : Engine.S with type state = s) = engs.(0) in
    let items = S.roots (module E0) wstates.(0) master in
    if items = [] then Collector.set_complete master else drive items []

(* --- entry --------------------------------------------------------------- *)

let default_checkpoint_every = Search_core.default_checkpoint_every

let run (type s) (engines : int -> (module Engine.S with type state = s))
    ?(options = Collector.default_options) ?checkpoint_out
    ?(checkpoint_every = default_checkpoint_every) ?(checkpoint_meta = [])
    ?resume_from ?telemetry ?(share_states = false) ?(replay_cache = true)
    ?on_cache_stats ~domains
    (module S : Strategy.S with type state = s) : Sresult.t =
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
  let fp =
    (* only needed when a checkpoint is read or written *)
    if checkpoint_out <> None || resume_from <> None then
      fingerprint engs.(0)
    else ""
  in
  let resume_v3 =
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
        | Some s when s <> fp ->
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
     resumed file, [note_round_done] charges each completed round, and
     [stamp] writes fingerprint + timing into every save (charging the
     current partial round without closing it). *)
  let run_started_at = Unix.gettimeofday () in
  let param key =
    Option.bind resume_v3 (fun (f : Checkpoint.v3) ->
        List.assoc_opt key f.Checkpoint.v3_params)
  in
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
  let round_started = ref run_started_at in
  let add_bound_time bt (b, d) =
    if List.mem_assoc b bt then
      List.map (fun (b', s) -> if b' = b then (b', s +. d) else (b', s)) bt
    else if d < 0.0005 then bt (* no entries for rounds never explored *)
    else bt @ [ (b, d) ]
  in
  let note_round_done r =
    let now = Unix.gettimeofday () in
    bound_times := add_bound_time !bound_times (r, now -. !round_started);
    round_started := now
  in
  let stamp (f : Checkpoint.v3) =
    let now = Unix.gettimeofday () in
    let bt = add_bound_time !bound_times (S.round (), now -. !round_started) in
    {
      f with
      Checkpoint.v3_params =
        f.Checkpoint.v3_params
        @ [
            (fingerprint_key, fp);
            ( Checkpoint.elapsed_key,
              Printf.sprintf "%.3f" (base_elapsed +. now -. run_started_at) );
            (Checkpoint.bound_times_key, Checkpoint.encode_bound_times bt);
          ];
    }
  in
  let ckpt =
    Option.map
      (fun path ->
        {
          Search_core.ck_path = path;
          ck_every = max 1 checkpoint_every;
          ck_meta = checkpoint_meta;
          ck_last = Collector.executions master;
          ck_events = emit;
        })
      checkpoint_out
  in
  if Icb_obs.Emit.enabled emit then
    Icb_obs.Emit.emit emit
      (Icb_obs.Event.Run_started
         { strategy = S.name; domains; resumed = resume_from <> None });
  (try
     if domains = 1 then
       run_serial engs.(0) (module S) ~stamp ~note_round_done ~emit
         ~rp:rps.(0) ~retain master ckpt resume_v3
     else
       run_parallel engs (module S) ~stamp ~note_round_done ~tel:telemetry
         ~emit ~options master ckpt resume_v3 ~rps ~retain ~domains
   with Collector.Stop -> ());
  let cstats = Replay_cache.zero () in
  Array.iter
    (fun rp -> Replay_cache.accum ~into:cstats rp.Search_core.rp_stats)
    rps;
  (match on_cache_stats with None -> () | Some f -> f cstats);
  if Icb_obs.Emit.enabled emit && replay_cache && has_snap then
    Icb_obs.Emit.emit emit
      (Icb_obs.Event.Cache_stats
         {
           hits = cstats.Replay_cache.hits;
           misses = cstats.Replay_cache.misses;
           steps_saved = cstats.Replay_cache.steps_saved;
           steps_replayed = cstats.Replay_cache.steps_replayed;
         });
  let res = Collector.result master ~strategy:S.name in
  if Icb_obs.Emit.enabled emit then
    Icb_obs.Emit.emit emit
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

(* The per-run telemetry handle: one shared monotonic clock, a
   mutex-guarded fan-out to consumers (trace writer, metrics updater,
   periodic dump), and the two emitter shapes the driver uses — a direct
   emitter for single-writer paths (serial collector, the master at a
   barrier) and a buffered emitter per parallel worker, whose private
   buffer is flushed in worker order at the round barrier so the merged
   stream is deterministic up to timestamps.

   The consumer lock serializes fan-out; workers only take it at flush
   time (and for the rare checkpoint event written mid-round from a
   worker domain), so the search hot path never contends on it. *)

(* The parts of the metrics projection that {!merge_deltas} updates
   itself rather than by adding a remote image. *)
type projection = {
  executions : Metrics.counter;
  bugs : Metrics.counter;
  rate : Metrics.gauge;
  seen_bugs : (string, unit) Hashtbl.t;
}

type t = {
  epoch : float;
  lock : Mutex.t;
  metrics : Metrics.t;
  mutable consumers : (Event.envelope -> unit) list;  (* reversed *)
  mutable closers : (unit -> unit) list;              (* reversed *)
  mutable projection : projection option;  (* metrics updater installed *)
  mutable streaming : bool;  (* a consumer other than the projection *)
  mutable closed : bool;
}

let create () =
  {
    epoch = Unix.gettimeofday ();
    lock = Mutex.create ();
    metrics = Metrics.create ();
    consumers = [];
    closers = [];
    projection = None;
    streaming = false;
    closed = false;
  }

let clock t () = Unix.gettimeofday () -. t.epoch
let metrics t = t.metrics

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

let subscribe t f = t.consumers <- f :: t.consumers

let add_consumer t f =
  t.streaming <- true;
  subscribe t f

let streams_events t = t.streaming
let on_close t f = t.closers <- f :: t.closers

let deliver t env =
  List.iter (fun f -> f env) (List.rev t.consumers)

let publish t env = with_lock t.lock (fun () -> deliver t env)

let emitter t ~worker = Emit.live ~worker ~clock:(clock t) ~push:(publish t)

(* Run [f] under the consumer lock: an HTTP handler rendering the metrics
   registry must not interleave with a concurrent fan-out updating it. *)
let locked t f = with_lock t.lock (fun () -> f ())

(* Deliver pre-built envelopes (a distributed worker's buffered stream,
   decoded off the wire) in order, under the lock — the cross-process
   analogue of a [buffered] emitter's flush. *)
let inject t envs = with_lock t.lock (fun () -> List.iter (deliver t) envs)

let buffered t ~worker =
  let buf = ref [] in
  let e =
    Emit.live ~worker ~clock:(clock t) ~push:(fun env -> buf := env :: !buf)
  in
  let flush () =
    match !buf with
    | [] -> ()
    | pending ->
      buf := [];
      let pending = List.rev pending in
      with_lock t.lock (fun () -> List.iter (deliver t) pending)
  in
  (e, flush)

(* --- sinks ---------------------------------------------------------------- *)

let add_trace t path =
  let oc = open_out path in
  add_consumer t (fun env ->
      output_string oc (Json.to_string (Event.to_json env));
      output_char oc '\n');
  on_close t (fun () -> close_out oc)

let note_bug p key =
  if not (Hashtbl.mem p.seen_bugs key) then begin
    Hashtbl.add p.seen_bugs key ();
    Metrics.inc p.bugs 1.0
  end

let bugs_metric = "icb_bugs_total"

(* The standard event -> metrics projection.  [Bug_found] fires again
   for a key whose witness shrinks, and a parallel run's workers each
   report their own keys (barrier merges never re-emit), so bug keys are
   deduplicated here: [icb_bugs_total] counts distinct keys. *)
let track_metrics t =
  if t.projection = None then begin
    let m = t.metrics in
    let executions = Metrics.counter m ~help:"Completed executions" "icb_executions_total" in
    let steps = Metrics.counter m ~help:"Engine steps, summed over work items" "icb_steps_total" in
    let items = Metrics.counter m ~help:"Work items expanded" "icb_items_total" in
    let bugs =
      Metrics.counter m ~help:"Distinct bug keys discovered" bugs_metric
    in
    let checkpoints = Metrics.counter m ~help:"Checkpoints written" "icb_checkpoints_total" in
    let bound = Metrics.gauge m ~help:"Current strategy round (ICB: context bound)" "icb_current_bound" in
    let frontier = Metrics.gauge m ~help:"Work items seeding the current round" "icb_frontier_items" in
    let rate = Metrics.gauge m ~help:"Completed executions per wall-clock second" "icb_executions_per_second" in
    let h_steps =
      Metrics.histogram m ~help:"Steps (depth) per completed execution"
        ~buckets:[ 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. ]
        "icb_steps_per_execution"
    in
    let h_preempt =
      Metrics.histogram m ~help:"Preemptions per completed execution"
        ~buckets:[ 0.; 1.; 2.; 3.; 4.; 5.; 8.; 16. ]
        "icb_preemptions_per_execution"
    in
    let h_item =
      Metrics.histogram m ~help:"Wall-clock seconds per work item"
        ~buckets:[ 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. ]
        "icb_item_seconds"
    in
    let h_step =
      Metrics.histogram m ~help:"Mean engine-step latency per work item, seconds"
        ~buckets:[ 1e-8; 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2 ]
        "icb_step_seconds"
    in
    let cache_hits = Metrics.counter m ~help:"Replay-cache materializations served from a snapshot" "icb_replay_cache_hits_total" in
    let cache_misses = Metrics.counter m ~help:"Replay-cache materializations replayed from the root" "icb_replay_cache_misses_total" in
    let cache_saved = Metrics.counter m ~help:"Engine steps avoided by the replay cache" "icb_replay_cache_steps_saved_total" in
    let cache_replayed = Metrics.counter m ~help:"Engine steps re-executed to rebuild schedule prefixes" "icb_replay_cache_steps_replayed_total" in
    let p = { executions; bugs; rate; seen_bugs = Hashtbl.create 8 } in
    t.projection <- Some p;
    subscribe t (fun { Event.ts; ev; _ } ->
        match ev with
        | Event.Execution_done e ->
          Metrics.inc executions 1.0;
          Metrics.observe h_steps (float_of_int e.steps);
          Metrics.observe h_preempt (float_of_int e.preemptions);
          if ts > 1e-9 then Metrics.set rate (Metrics.value executions /. ts)
        | Event.Item_finished i ->
          Metrics.inc items 1.0;
          Metrics.inc steps (float_of_int i.steps);
          Metrics.observe h_item i.seconds;
          if i.steps > 0 then
            Metrics.observe h_step (i.seconds /. float_of_int i.steps)
        | Event.Bug_found b -> note_bug p b.key
        | Event.Bound_started b ->
          Metrics.set bound (float_of_int b.bound);
          Metrics.set frontier (float_of_int b.items)
        | Event.Checkpoint_written _ -> Metrics.inc checkpoints 1.0
        | Event.Cache_stats c ->
          Metrics.inc cache_hits (float_of_int c.hits);
          Metrics.inc cache_misses (float_of_int c.misses);
          Metrics.inc cache_saved (float_of_int c.steps_saved);
          Metrics.inc cache_replayed (float_of_int c.steps_replayed)
        | Event.Run_started _ | Event.Item_started _ | Event.Worker_stats _
        | Event.Run_finished _ | Event.Minimize_started _
        | Event.Minimize_improved _ | Event.Minimize_finished _ -> ())
  end

(* A remote projection's image ({!Metrics.values_to_json}) adds in
   directly, except for the distinct-bug count: per-batch distinct keys
   do not sum, so count the reported keys against this projection's own
   set.  The rate gauge is this run's, on this clock. *)
let merge_deltas t values ~bugs =
  match t.projection with
  | None -> Error "merge_deltas: no metrics projection (track_metrics)"
  | Some p ->
    let values =
      match values with
      | Json.Obj l -> Json.Obj (List.remove_assoc bugs_metric l)
      | v -> v
    in
    with_lock t.lock (fun () ->
        Result.map
          (fun () ->
            List.iter (note_bug p) bugs;
            let ts = clock t () in
            if ts > 1e-9 then
              Metrics.set p.rate (Metrics.value p.executions /. ts))
          (Metrics.merge_values t.metrics values))

let dump_metrics t path =
  let data =
    if Filename.check_suffix path ".json" then
      Json.to_string (Metrics.to_json t.metrics) ^ "\n"
    else Metrics.to_prometheus t.metrics
  in
  (* atomic like checkpoints: a reader never sees a half-written dump *)
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path)
      (Filename.basename path) ".tmp"
  in
  let oc = open_out tmp in
  (try
     output_string oc data;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let add_metrics_dump t ?(every = 5.0) path =
  track_metrics t;
  let last = ref neg_infinity in
  add_consumer t (fun { Event.ts; _ } ->
      if every > 0.0 && ts -. !last >= every then begin
        last := ts;
        dump_metrics t path
      end);
  on_close t (fun () -> dump_metrics t path)

let close t =
  if not t.closed then begin
    t.closed <- true;
    with_lock t.lock (fun () ->
        List.iter (fun f -> f ()) (List.rev t.closers))
  end

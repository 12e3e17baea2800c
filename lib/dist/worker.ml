module Json = Icb_obs.Json
module Telemetry = Icb_obs.Telemetry
module Collector = Icb_search.Collector
module Strategy = Icb_search.Strategy
module Driver = Icb_search.Driver
module Explore = Icb_search.Explore
module Checkpoint = Icb_search.Checkpoint
module Search_core = Icb_search.Search_core

type packed_engine =
  | Packed :
      (module Icb_search.Engine.S with type state = 's)
      -> packed_engine

(* One batch: build a fresh strategy instance positioned at the batch's
   round via [of_prefixes] (the work list is always non-empty, so the
   randomized strategies never mint fresh walks here), drain the local
   deque exactly like a parallel worker — own items pop front-first,
   [c_push] follow-ups run depth-first — and serialize everything the
   coordinator's barrier needs.  The collector carries no limits:
   batches are the unit of both work and accounting, and stopping is the
   coordinator's call.  The batch's events are buffered for the wire
   when the coordinator has a stream consumer ([j_events]); otherwise a
   local metrics projection reads them, and only its values travel. *)
let process_batch (type s) (module E : Icb_search.Engine.S with type state = s)
    ~(rp : s Search_core.replayer) ~(job : Proto.job) ~clock
    (b : Proto.batch) : (Proto.report, string) result =
  let v3 =
    {
      Checkpoint.v3_tag = b.Proto.b_tag;
      v3_params = b.Proto.b_params;
      v3_round = b.Proto.b_round;
      v3_work = b.Proto.b_items;
      v3_next = [];
    }
  in
  match Explore.strategy_of_v3 v3 with
  | exception Invalid_argument msg -> Error msg
  | strat ->
    let (module S : Strategy.S with type state = s) =
      Explore.instantiate (module E) strat
    in
    let buf = ref [] in
    let local =
      if job.Proto.j_events then None else Some (Telemetry.create ())
    in
    let emit =
      match local with
      | None ->
        Icb_obs.Emit.live ~worker:job.Proto.j_worker ~clock ~push:(fun env ->
            buf := env :: !buf)
      | Some tel ->
        Telemetry.track_metrics tel;
        Telemetry.emitter tel ~worker:job.Proto.j_worker
    in
    let lcol =
      Collector.create
        {
          Collector.default_options with
          Collector.deadlock_is_error = job.Proto.j_deadlock_is_error;
          terminal_states_only = job.Proto.j_terminal_states_only;
          events = emit;
        }
    in
    let work, _carry = S.of_prefixes lcol v3 in
    let w = S.wstate () in
    let queue = ref (List.map Driver.of_prefix work) in
    let deferred = ref [] in
    let materialize it =
      match rp.Search_core.rp_run it with
      | Ok st -> Some st
      | Error (st, t, exn) ->
        Search_core.record_crash (module E) lcol st t exn;
        None
    in
    let ctx =
      {
        Strategy.c_col = lcol;
        c_push = (fun it -> queue := it :: !queue);
        c_defer =
          (fun it ->
            deferred := { it with Strategy.i_state = None } :: !deferred);
        c_materialize = materialize;
      }
    in
    let expand = S.expand (module E) w in
    let rec loop () =
      match !queue with
      | [] -> ()
      | it :: rest ->
        queue := rest;
        Driver.expand_item emit expand ctx it;
        loop ()
    in
    (match loop () with
    | () -> ()
    | exception Collector.Stop -> ()
      (* local collectors carry no limits, but a strategy may still raise *));
    let params =
      (S.to_prefixes ~wstates:[| w |] ~work:[] ~next:[]).Checkpoint.v3_params
    in
    Ok
      {
        Proto.r_params = params;
        r_snapshot = Collector.snapshot_to_json (Collector.snapshot lcol);
        r_deferred = List.rev_map Strategy.prefix_of !deferred;
        r_events = List.rev_map Icb_obs.Event.to_json !buf;
        r_metrics =
          Option.map
            (fun tel -> Icb_obs.Metrics.values_to_json (Telemetry.metrics tel))
            local;
      }

let connect ~host ~port =
  match Unix.getaddrinfo host (string_of_int port)
          [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
  with
  | [] -> Error (Printf.sprintf "cannot resolve %s:%d" host port)
  | ai :: _ -> (
    let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype 0 in
    match Unix.connect fd ai.Unix.ai_addr with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s:%d: %s" host port
           (Unix.error_message e)))

let recv_s2c ic =
  match Proto.recv ic with
  | Error `Closed -> Error "coordinator closed the connection"
  | Error (`Malformed m) -> Error ("protocol error: " ^ m)
  | Ok j -> Proto.s2c_of_json j

let run ?(cache = true) ~host ~port ~resolve () =
  let ( let* ) = Result.bind in
  let* fd = connect ~host ~port in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* hello until the coordinator has a job to describe *)
      let rec handshake () =
        Proto.send oc (Proto.c2s_to_json Proto.Hello);
        let* reply = recv_s2c ic in
        match reply with
        | Proto.Job job -> Ok job
        | Proto.Wait { ms } ->
          Unix.sleepf (float_of_int ms /. 1000.);
          handshake ()
        | Proto.Done -> Error "coordinator has no job for this worker"
        | _ -> Error "protocol error: expected a job"
      in
      let* job = handshake () in
      let* (Packed (module E)) = resolve job.Proto.j_meta in
      let fp = Driver.fingerprint (module E) in
      let* () =
        if fp <> job.Proto.j_root_sig then
          Error
            "the job belongs to a different program (initial-state \
             fingerprint mismatch)"
        else Ok ()
      in
      (* the replay cache persists across batches: consecutive batches of
         a sorted frontier share schedule prefixes *)
      let rp =
        Search_core.replayer
          (module E)
          ~cache:(cache && job.Proto.j_cache) ()
      in
      let epoch = Unix.gettimeofday () in
      let clock () = Unix.gettimeofday () -. epoch in
      let ack () =
        let* reply = recv_s2c ic in
        match reply with
        | Proto.Accepted | Proto.Stale -> Ok ()
        | _ -> Error "protocol error: expected an accept/stale ack"
      in
      (* Pipelined: holding a batch, ask for the next one before running
         it, so the lease round trip overlaps the search; the previous
         result's ack is read only after the run.  The coordinator
         answers in message order, so replies are read in send order:
         [owed] says the last result's ack precedes the next reply.  With
         nothing left pending when this batch was leased, asking ahead
         would only earn a wait; ask after the result instead. *)
      let rec idle batches ~owed =
        Proto.send oc (Proto.c2s_to_json Proto.Request);
        let* () = if owed then ack () else Ok () in
        let* reply = recv_s2c ic in
        match reply with
        | Proto.Batch b -> busy batches b ~owed:false
        | Proto.Wait { ms } ->
          Unix.sleepf (float_of_int ms /. 1000.);
          idle batches ~owed:false
        | Proto.Done -> Ok batches
        | _ -> Error "protocol error: expected batch/wait/done"
      and busy batches b ~owed =
        let ahead = b.Proto.b_pending > 0 in
        if ahead then Proto.send oc (Proto.c2s_to_json Proto.Request);
        let* report = process_batch (module E) ~rp ~job ~clock b in
        let* () = if owed then ack () else Ok () in
        Proto.send oc
          (Proto.c2s_to_json
             (Proto.Result { lease = b.Proto.b_lease; report }));
        if ahead then ahead_reply (batches + 1)
        else idle (batches + 1) ~owed:true
      and ahead_reply batches =
        let* next = recv_s2c ic in
        match next with
        | Proto.Batch b -> busy batches b ~owed:true
        | Proto.Wait _ ->
          (* the rest of the round went to other leases meanwhile: ask
             again with no lease held, which waits for the next round *)
          idle batches ~owed:true
        | Proto.Done ->
          let* () = ack () in
          Ok batches
        | _ -> Error "protocol error: expected batch/wait/done"
      in
      idle 0 ~owed:false)

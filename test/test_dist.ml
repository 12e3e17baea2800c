(* The distributed coordinator/worker pair: lease re-issue after a
   worker dies mid-batch, stale-report rejection, pipelined and parked
   requests, telemetry over the wire, coordinator interrupt/resume
   through its checkpoint, and the HTTP observability endpoints — all
   over real loopback sockets.  Equivalence with the serial search for
   every shardable strategy is test_conformance's worker cells. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult
module Strategy = Icb_search.Strategy
module Coord = Icb_dist.Coord
module Worker = Icb_dist.Worker
module Proto = Icb_dist.Proto
module Json = Icb_obs.Json
module Telemetry = Icb_obs.Telemetry
module Metrics = Icb_obs.Metrics
module Trace = Icb_obs.Trace
module Event = Icb_obs.Event

let prog () =
  Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set

open Harness

let dist_metric coord name =
  let tel = Coord.telemetry coord in
  Telemetry.locked tel (fun () ->
      Option.value (Metrics.find (Telemetry.metrics tel) name) ~default:0.0)

(* --- a raw protocol client, for misbehaving on purpose --------------------- *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  (fd, ic, oc)

let rpc ic oc msg =
  Proto.send oc (Proto.c2s_to_json msg);
  match Proto.recv ic with
  | Ok j -> (
    match Proto.s2c_of_json j with
    | Ok reply -> reply
    | Error m -> Alcotest.failf "undecodable server message: %s" m)
  | Error `Closed -> Alcotest.fail "the coordinator closed the connection"
  | Error (`Malformed m) -> Alcotest.failf "malformed frame: %s" m

let rec wait_for_job ic oc =
  match rpc ic oc Proto.Hello with
  | Proto.Job j -> j
  | Proto.Wait { ms } ->
    Unix.sleepf (float_of_int ms /. 1000.);
    wait_for_job ic oc
  | _ -> Alcotest.fail "expected Job or Wait after Hello"

let rec lease_batch ic oc =
  match rpc ic oc Proto.Request with
  | Proto.Batch b -> b
  | Proto.Wait { ms } ->
    Unix.sleepf (float_of_int ms /. 1000.);
    lease_batch ic oc
  | _ -> Alcotest.fail "expected Batch or Wait after Request"

(* Run the coordinator on a background thread so the test thread can
   play the client side deterministically. *)
let coord_in_background coord p strategy =
  let cell = ref None in
  let th =
    Thread.create
      (fun () ->
        cell :=
          Some
            (Coord.run coord (Icb.engine p)
               ~env:(Strategy.env_of_prog p)
               strategy))
      ()
  in
  fun () ->
    Thread.join th;
    match !cell with
    | Some r -> r
    | None -> Alcotest.fail "the coordinator run raised"

(* Close [fd] with a TCP reset instead of an orderly shutdown, the way a
   crashed host or a middlebox ends a connection. *)
let reset fd =
  Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
  Unix.close fd

(* Poll [cond] for up to [secs]. *)
let eventually ?(secs = 5.0) cond =
  let until = Unix.gettimeofday () +. secs in
  let rec go () =
    cond () || (Unix.gettimeofday () < until && (Unix.sleepf 0.01; go ()))
  in
  go ()

let lease_tests =
  [
    (* A worker killed mid-batch: lease round 0's only batch on a raw
       connection, drop the connection without reporting.  The
       coordinator must void the lease on disconnect, re-issue the
       batch, and the final result must still be exactly serial. *)
    Alcotest.test_case "a killed worker's lease is re-issued" `Quick
      (fun () ->
        let p = prog () in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let s = Icb.run ~strategy p in
        let coord = Coord.create ~batch_size:1 ~lease_timeout:30.0 () in
        let port = Coord.port coord in
        let finish = coord_in_background coord p strategy in
        let fd, ic, oc = raw_connect port in
        let _job = wait_for_job ic oc in
        let b = lease_batch ic oc in
        check Alcotest.int "round 0 starts at batch 0" 0 b.Proto.b_id;
        (* die holding the lease *)
        Unix.close fd;
        let w = spawn_worker ~port (Icb.engine p) in
        let d = finish () in
        Thread.join w;
        check Alcotest.bool "the re-issue was counted" true
          (dist_metric coord "icb_dist_leases_reissued" >= 1.0);
        Coord.shutdown coord;
        assert_equivalent "after a mid-batch worker kill" s d);
    (* A zombie worker: its lease expires (it never disconnects, just
       stalls), the batch is re-issued, and its late report must be
       answered [Stale] and never double-counted. *)
    Alcotest.test_case "a late report on an expired lease is Stale" `Quick
      (fun () ->
        let p = prog () in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let s = Icb.run ~strategy p in
        let coord = Coord.create ~batch_size:1 ~lease_timeout:0.2 () in
        let port = Coord.port coord in
        let finish = coord_in_background coord p strategy in
        let fd, ic, oc = raw_connect port in
        let _job = wait_for_job ic oc in
        let b = lease_batch ic oc in
        (* stall past the lease timeout; the ticker reclaims the batch *)
        Unix.sleepf 0.6;
        let report =
          {
            Proto.r_params = b.Proto.b_params;
            r_snapshot =
              Collector.snapshot_to_json
                (Collector.snapshot
                   (Collector.create Collector.default_options));
            r_deferred = [];
            r_events = [];
            r_metrics = None;
          }
        in
        (match rpc ic oc (Proto.Result { lease = b.Proto.b_lease; report })
         with
        | Proto.Stale -> ()
        | _ -> Alcotest.fail "expected Stale for the expired lease");
        Unix.close fd;
        let w = spawn_worker ~port (Icb.engine p) in
        let d = finish () in
        Thread.join w;
        check Alcotest.bool "the expiry was counted as a re-issue" true
          (dist_metric coord "icb_dist_leases_reissued" >= 1.0);
        check Alcotest.bool "the stale report was counted" true
          (dist_metric coord "icb_dist_stale_reports" >= 1.0);
        Coord.shutdown coord;
        assert_equivalent "the zombie never double-counts" s d);
    Alcotest.test_case "a reset holding a lease is one dropped connection"
      `Quick (fun () ->
        let p = prog () in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let s = Icb.run ~strategy p in
        let coord = Coord.create ~batch_size:1 ~lease_timeout:30.0 () in
        let port = Coord.port coord in
        let finish = coord_in_background coord p strategy in
        let fd, ic, oc = raw_connect port in
        let _job = wait_for_job ic oc in
        ignore (lease_batch ic oc);
        reset fd;
        let w = spawn_worker ~port (Icb.engine p) in
        let d = finish () in
        Thread.join w;
        let dropped () = dist_metric coord "icb_dist_dropped_connections" in
        ignore (eventually (fun () -> dropped () >= 1.0));
        check (Alcotest.float 0.0) "dropped connections" 1.0 (dropped ());
        Coord.shutdown coord;
        assert_equivalent "after a reset mid-lease" s d);
  ]

(* --- pipelined leases ----------------------------------------------------- *)

let recv_reply ic =
  match Proto.recv ic with
  | Ok j -> (
    match Proto.s2c_of_json j with
    | Ok reply -> reply
    | Error m -> Alcotest.failf "undecodable server message: %s" m)
  | Error `Closed -> Alcotest.fail "the coordinator closed the connection"
  | Error (`Malformed m) -> Alcotest.failf "malformed frame: %s" m

(* Whether the coordinator has answered on [fd] within [secs]; the
   channel holds no read-ahead when this is asked. *)
let answered_within fd secs =
  match Unix.select [ fd ] [] [] secs with [], _, _ -> false | _ -> true

let expect_batch what = function
  | Proto.Batch b -> b
  | _ -> Alcotest.failf "%s: expected a batch" what

(* A report that claims nothing but [executions] and [deferred]: enough
   to drive the coordinator's rounds by hand. *)
let forged_report ?(executions = 0) ?(deferred = []) (b : Proto.batch) =
  let snap = Collector.snapshot (Collector.create Collector.default_options) in
  let snap =
    if executions = 0 then snap
    else Collector.forge_counts snap ~executions ~total_steps:executions
  in
  {
    Proto.r_params = b.Proto.b_params;
    r_snapshot = Collector.snapshot_to_json snap;
    r_deferred = deferred;
    r_events = [];
    r_metrics = None;
  }

(* A coordinator resuming a serial run stopped after 5 executions: its
   first round is the 18 bound-1 items left, two batches at batch size
   10.  Run to the end, it lands on the serial resume of the same
   checkpoint, returned as the reference. *)
let resumed_executions = 5

let two_batch_coord ?options () =
  let p = prog () in
  let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
  let path = Filename.temp_file "icb-dist" ".ckpt" in
  ignore
    (Icb.run
       ~options:
         {
           Collector.default_options with
           Collector.max_executions = Some resumed_executions;
         }
       ~checkpoint_out:path ~strategy p);
  let ckpt = Checkpoint.load path in
  Sys.remove path;
  let reference () = Icb.resume p ckpt in
  let coord = Coord.create ~batch_size:10 ~lease_timeout:30.0 () in
  let cell = ref None in
  let th =
    Thread.create
      (fun () ->
        cell :=
          Some
            (Coord.run coord (Icb.engine p) ?options ~resume_from:ckpt
               ~env:(Strategy.env_of_prog p) strategy))
      ()
  in
  let finish () =
    Thread.join th;
    Option.get !cell
  in
  (reference, coord, finish)

let pipeline_tests =
  [
    Alcotest.test_case "two requests before a result get two distinct leases"
      `Quick (fun () ->
        let _, coord, finish = two_batch_coord () in
        let fd, ic, oc = raw_connect (Coord.port coord) in
        let _job = wait_for_job ic oc in
        let b0 = expect_batch "first request" (rpc ic oc Proto.Request) in
        let b1 = expect_batch "second request" (rpc ic oc Proto.Request) in
        check Alcotest.bool "distinct lease tokens" true
          (b0.Proto.b_lease <> b1.Proto.b_lease);
        check (Alcotest.pair Alcotest.int Alcotest.int) "batches 0 and 1"
          (0, 1) (b0.Proto.b_id, b1.Proto.b_id);
        check Alcotest.int "one round" b0.Proto.b_round b1.Proto.b_round;
        Unix.close fd;
        let w = spawn_worker ~port:(Coord.port coord) (Icb.engine (prog ())) in
        ignore (finish ());
        Thread.join w;
        Coord.shutdown coord);
    Alcotest.test_case
      "a lease holder's request with nothing pending gets an immediate wait"
      `Quick (fun () ->
        let _, coord, finish = two_batch_coord () in
        let fd, ic, oc = raw_connect (Coord.port coord) in
        let _job = wait_for_job ic oc in
        ignore (expect_batch "first" (rpc ic oc Proto.Request));
        ignore (expect_batch "second" (rpc ic oc Proto.Request));
        Proto.send oc (Proto.c2s_to_json Proto.Request);
        check Alcotest.bool "answered at once, not parked" true
          (answered_within fd 5.0);
        (match recv_reply ic with
        | Proto.Wait { ms = 0 } -> ()
        | _ -> Alcotest.fail "expected wait with ms 0");
        Unix.close fd;
        let w = spawn_worker ~port:(Coord.port coord) (Icb.engine (prog ())) in
        ignore (finish ());
        Thread.join w;
        Coord.shutdown coord);
    (* A drives round 0 by hand, deferring one item so that round 1 is
       one batch; B's request parks until round 1 opens, then A's parks
       until the run ends. *)
    Alcotest.test_case
      "a parked request gets the next round's batch, then done" `Quick
      (fun () ->
        let _, coord, finish = two_batch_coord () in
        let port = Coord.port coord in
        let fa, ia, oa = raw_connect port in
        let fb, ib, ob = raw_connect port in
        ignore (wait_for_job ia oa);
        ignore (wait_for_job ib ob);
        let b0 = expect_batch "a: first" (rpc ia oa Proto.Request) in
        let b1 = expect_batch "a: second" (rpc ia oa Proto.Request) in
        Proto.send ob (Proto.c2s_to_json Proto.Request);
        check Alcotest.bool "b parks while round 0 is leased out" false
          (answered_within fb 0.3);
        (match
           rpc ia oa
             (Proto.Result
                {
                  lease = b0.Proto.b_lease;
                  report = forged_report ~deferred:b0.Proto.b_items b0;
                })
         with
        | Proto.Accepted -> ()
        | _ -> Alcotest.fail "expected the first result accepted");
        (match
           rpc ia oa
             (Proto.Result
                { lease = b1.Proto.b_lease; report = forged_report b1 })
         with
        | Proto.Accepted -> ()
        | _ -> Alcotest.fail "expected the second result accepted");
        check Alcotest.bool "round 1 wakes b" true (answered_within fb 5.0);
        let nb = expect_batch "b: parked request" (recv_reply ib) in
        check Alcotest.bool "the batch belongs to the next round" true
          (nb.Proto.b_round > b0.Proto.b_round);
        Proto.send oa (Proto.c2s_to_json Proto.Request);
        check Alcotest.bool "a parks while round 1 is leased out" false
          (answered_within fa 0.3);
        (match
           rpc ib ob
             (Proto.Result
                { lease = nb.Proto.b_lease; report = forged_report nb })
         with
        | Proto.Accepted -> ()
        | _ -> Alcotest.fail "expected round 1's result accepted");
        check Alcotest.bool "the end of the run wakes a" true
          (answered_within fa 5.0);
        (match recv_reply ia with
        | Proto.Done -> ()
        | _ -> Alcotest.fail "expected done for the parked request");
        Unix.close fa;
        Unix.close fb;
        ignore (finish ());
        Coord.shutdown coord);
    Alcotest.test_case "a killed worker's two leases are both re-issued"
      `Quick (fun () ->
        let reference, coord, finish = two_batch_coord () in
        let s = reference () in
        let fd, ic, oc = raw_connect (Coord.port coord) in
        let _job = wait_for_job ic oc in
        ignore (expect_batch "first" (rpc ic oc Proto.Request));
        ignore (expect_batch "second" (rpc ic oc Proto.Request));
        (* die holding both *)
        Unix.close fd;
        let w = spawn_worker ~port:(Coord.port coord) (Icb.engine (prog ())) in
        let d = finish () in
        Thread.join w;
        check Alcotest.bool "both leases were re-issued" true
          (dist_metric coord "icb_dist_leases_reissued" >= 2.0);
        Coord.shutdown coord;
        assert_equivalent "after killing a two-lease worker" s d);
    (* The first result trips the execution cap; the second, on a lease
       still held, must not be absorbed past the stop. *)
    Alcotest.test_case "a result sent after a stop is stale" `Quick (fun () ->
        let options =
          {
            Collector.default_options with
            Collector.max_executions = Some (resumed_executions + 1);
          }
        in
        let _, coord, finish = two_batch_coord ~options () in
        let fd, ic, oc = raw_connect (Coord.port coord) in
        let _job = wait_for_job ic oc in
        let b0 = expect_batch "first" (rpc ic oc Proto.Request) in
        let b1 = expect_batch "second" (rpc ic oc Proto.Request) in
        let report b = forged_report ~executions:5 b in
        (match
           rpc ic oc
             (Proto.Result { lease = b0.Proto.b_lease; report = report b0 })
         with
        | Proto.Accepted -> ()
        | _ -> Alcotest.fail "expected the capping result accepted");
        (match
           rpc ic oc
             (Proto.Result { lease = b1.Proto.b_lease; report = report b1 })
         with
        | Proto.Stale -> ()
        | _ -> Alcotest.fail "expected stale after the stop");
        Unix.close fd;
        let d = finish () in
        Coord.shutdown coord;
        check Alcotest.bool "stopped by the cap" true
          (d.Sresult.stop_reason = Some Sresult.Execution_limit);
        check Alcotest.int "only the first batch was absorbed"
          (resumed_executions + 5) d.Sresult.executions);
  ]

(* --- telemetry over the wire ---------------------------------------------- *)

(* The series a metrics projection must reproduce exactly, as Prometheus
   sample lines. *)
let projected_lines tel =
  let text =
    Telemetry.locked tel (fun () ->
        Metrics.to_prometheus (Telemetry.metrics tel))
  in
  List.filter
    (fun line ->
      List.exists
        (fun prefix -> String.starts_with ~prefix line)
        [
          "icb_executions_total ";
          "icb_steps_total ";
          "icb_items_total ";
          "icb_bugs_total ";
          "icb_steps_per_execution_";
          "icb_preemptions_per_execution_";
        ])
    (String.split_on_char '\n' text)

let serial_metrics p strategy =
  let tel = Telemetry.create () in
  Telemetry.track_metrics tel;
  let r = Icb.run ~telemetry:tel ~strategy p in
  Telemetry.close tel;
  (r, projected_lines tel)

let traced_summary run =
  let path = Filename.temp_file "icb-dist" ".jsonl" in
  let tel = Telemetry.create () in
  Telemetry.add_trace tel path;
  let r = run tel in
  Telemetry.close tel;
  let s = Trace.summarize (Trace.read path) in
  Sys.remove path;
  (r, s)

let bug_keys (s : Trace.summary) =
  List.sort compare
    (List.map
       (fun (b : Trace.bug) -> (b.Trace.bg_key, b.Trace.bg_preemptions))
       s.Trace.bugs)

let telemetry_tests =
  [
    Alcotest.test_case "an untraced run's /metrics equals a serial run's"
      `Quick (fun () ->
        List.iter
          (fun (what, p, strategy) ->
            let s, expected = serial_metrics p strategy in
            let d, coord = distributed (Icb.engine p) strategy in
            let tel = Coord.telemetry coord in
            check Alcotest.bool (what ^ ": workers shipped no events") false
              (Telemetry.streams_events tel);
            assert_equivalent what s d;
            check Alcotest.bool (what ^ ": executions were counted") true
              (s.Sresult.executions > 0 && List.length expected >= 6);
            check (Alcotest.list Alcotest.string) (what ^ ": projected series")
              expected (projected_lines tel))
          [
            ( "peterson",
              prog (),
              Explore.Icb { max_bound = Some 3; cache = false } );
            ( "transaction manager",
              Icb_models.Transaction.program
                Icb_models.Transaction.Bug_stale_entry,
              Explore.Icb { max_bound = Some 2; cache = false } );
          ]);
    Alcotest.test_case "a traced run's per-bound table equals a serial one"
      `Quick (fun () ->
        let p = prog () in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let s, ts =
          traced_summary (fun tel -> Icb.run ~telemetry:tel ~strategy p)
        in
        let d, td =
          traced_summary (fun tel ->
              fst (distributed ~telemetry:tel (Icb.engine p) strategy))
        in
        assert_equivalent "traced" s d;
        check
          (Alcotest.list
             (Alcotest.pair (Alcotest.option Alcotest.int) Alcotest.int))
          "executions per bound" ts.Trace.bounds td.Trace.bounds;
        check Alcotest.int "executions" ts.Trace.executions td.Trace.executions;
        check (Alcotest.option Alcotest.int) "states" ts.Trace.states
          td.Trace.states;
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
          "bugs" (bug_keys ts) (bug_keys td);
        check Alcotest.bool "complete" ts.Trace.complete td.Trace.complete);
    Alcotest.test_case "one checkpoint per trigger" `Quick (fun () ->
        let p =
          Icb_models.Transaction.program Icb_models.Transaction.Bug_stale_entry
        in
        let every = 40 in
        let tel = Telemetry.create () in
        let saves = ref 0 in
        Telemetry.add_consumer tel (fun env ->
            match env.Event.ev with
            | Event.Checkpoint_written _ -> incr saves
            | _ -> ());
        let path = Filename.temp_file "icb-dist" ".ckpt" in
        let d, _ =
          distributed ~batch_size:2 ~telemetry:tel ~checkpoint_out:path
            ~checkpoint_every:every (Icb.engine p)
            (Explore.Icb { max_bound = Some 2; cache = false })
        in
        Sys.remove path;
        check Alcotest.bool "mid-round saves happened" true (!saves >= 2);
        check Alcotest.bool
          (Printf.sprintf "%d saves for %d executions every %d" !saves
             d.Sresult.executions every)
          true
          (!saves <= (d.Sresult.executions / every) + 1));
    (* Each worker's replay memo reports per batch; summed at the
       coordinator, every materialization and every prefix step is
       counted once, as in a serial run (where and how they split
       between hits and misses depends on the batching). *)
    Alcotest.test_case "an untraced run reports serial's replay accounting"
      `Quick (fun () ->
        let p = Icb_models.Transaction.program Icb_models.Transaction.Correct in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let stats = ref (Icb_search.Replay_cache.zero ()) in
        let s = Icb.run ~on_cache_stats:(fun c -> stats := c) ~strategy p in
        let d, coord = distributed ~batch_size:16 (Icb.engine p) strategy in
        assert_equivalent "2 workers vs serial" s d;
        let m name = int_of_float (dist_metric coord name) in
        let c = !stats in
        check Alcotest.bool "the serial run materialized items" true
          (c.Icb_search.Replay_cache.hits > 0);
        check Alcotest.int "hits + misses"
          (c.Icb_search.Replay_cache.hits + c.Icb_search.Replay_cache.misses)
          (m "icb_replay_cache_hits_total" + m "icb_replay_cache_misses_total");
        check Alcotest.int "steps saved + replayed"
          (c.Icb_search.Replay_cache.steps_saved
          + c.Icb_search.Replay_cache.steps_replayed)
          (m "icb_replay_cache_steps_saved_total"
          + m "icb_replay_cache_steps_replayed_total"));
  ]

(* --- coordinator interrupt/resume ------------------------------------------ *)

let resume_tests =
  [
    (* The execution cap is the deterministic stand-in for kill -9: the
       checkpoint on disk is exactly what a killed coordinator leaves
       behind (absorbed batches in the collector, unabsorbed ones in the
       work list).  Resuming on a fresh coordinator — new port, new
       workers — must land on the full serial result. *)
    Alcotest.test_case "an interrupted coordinator resumes exactly" `Quick
      (fun () ->
        let p = prog () in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let full = Icb.run ~strategy p in
        let cap = max 1 (full.Sresult.executions / 2) in
        let path = Filename.temp_file "icb-dist" ".ckpt" in
        let killed, _ =
          distributed (Icb.engine p) strategy ~checkpoint_out:path
            ~options:
              {
                Collector.default_options with
                Collector.max_executions = Some cap;
              }
        in
        check Alcotest.bool "was interrupted" true
          (killed.Sresult.stop_reason = Some Sresult.Execution_limit);
        let resumed, _ =
          distributed (Icb.engine p) strategy
            ~resume_from:(Checkpoint.load path)
        in
        Sys.remove path;
        assert_equivalent "kill + distributed resume vs uninterrupted serial"
          full resumed);
    (* The same checkpoint must also resume serially: the distributed
       and serial drivers share one checkpoint format. *)
    Alcotest.test_case "a serial resume reads a distributed checkpoint"
      `Quick (fun () ->
        let p = prog () in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let full = Icb.run ~strategy p in
        let cap = max 1 (full.Sresult.executions / 2) in
        let path = Filename.temp_file "icb-dist" ".ckpt" in
        let killed, _ =
          distributed (Icb.engine p) strategy ~checkpoint_out:path
            ~options:
              {
                Collector.default_options with
                Collector.max_executions = Some cap;
              }
        in
        check Alcotest.bool "was interrupted" true
          (killed.Sresult.stop_reason <> None);
        let resumed = Icb.resume p (Checkpoint.load path) in
        Sys.remove path;
        assert_equivalent "kill + serial resume vs uninterrupted serial" full
          resumed);
    (* The coordinator validates a resumed checkpoint like the serial
       driver: another program's, or another strategy's, is refused up
       front, before any job is published. *)
    Alcotest.test_case "a foreign checkpoint is refused" `Quick (fun () ->
        let stopped p strategy =
          let path = Filename.temp_file "icb-dist" ".ckpt" in
          ignore
            (Icb.run
               ~options:
                 {
                   Collector.default_options with
                   Collector.max_executions = Some 5;
                 }
               ~checkpoint_out:path ~strategy p);
          let c = Checkpoint.load path in
          Sys.remove path;
          c
        in
        let icb = Explore.Icb { max_bound = Some 3; cache = false } in
        (* no workers: an accepted checkpoint ends at the deadline *)
        let refused what ckpt =
          let coord = Coord.create () in
          let p = prog () in
          match
            Coord.run coord (Icb.engine p) ~resume_from:ckpt
              ~options:
                {
                  Collector.default_options with
                  Collector.deadline = Some (Collector.deadline_in 1.0);
                }
              ~env:(Strategy.env_of_prog p) icb
          with
          | exception Invalid_argument _ -> Coord.shutdown coord
          | _ ->
            Coord.shutdown coord;
            Alcotest.failf "%s: the coordinator resumed it" what
        in
        refused "another program's checkpoint"
          (stopped (Icb_models.Dryad.program Icb_models.Dryad.Correct) icb);
        refused "another strategy's checkpoint"
          (stopped (prog ()) (Explore.Dfs { cache = false })));
  ]

(* --- HTTP endpoints on the protocol port ----------------------------------- *)

(* Send [request] and read until the coordinator closes (a reset, when
   it closes with our bytes unread, counts as a close). *)
let http_raw port request =
  let fd, ic, oc = raw_connect port in
  output_string oc request;
  flush oc;
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file | Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Buffer.contents buf

let http_get ?(meth = "GET") port path =
  http_raw port
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n\r\n" meth path)

(* A response's head and body. *)
let split_response r =
  let n = String.length r in
  let rec go i =
    if i + 4 > n then (r, "")
    else if String.sub r i 4 = "\r\n\r\n" then
      (String.sub r 0 i, String.sub r (i + 4) (n - i - 4))
    else go (i + 1)
  in
  go 0

(* The coordinator's sniff deadline (a constant in coord.ml): a
   connection that shows neither the protocol magic nor a whole HTTP
   request head by then is closed. *)
let sniff_deadline = 3.0

(* Whether the coordinator closes [fd] within [secs]. *)
let closed_within fd secs =
  let until = Unix.gettimeofday () +. secs in
  let buf = Bytes.create 64 in
  let rec go () =
    let left = until -. Unix.gettimeofday () in
    left > 0.
    &&
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> false
    | _ -> (
      match Unix.read fd buf 0 64 with
      | 0 -> true
      | _ -> go ()
      | exception Unix.Unix_error _ -> true)
  in
  go ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let http_tests =
  [
    Alcotest.test_case "/metrics and /status share the protocol port" `Quick
      (fun () ->
        let p = prog () in
        let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
        let d, coord = distributed (Icb.engine p) strategy ~keep:true in
        let port = Coord.port coord in
        let metrics = http_get port "/metrics" in
        let status = http_get port "/status" in
        let missing = http_get port "/nope" in
        check Alcotest.bool "batches were completed" true
          (dist_metric coord "icb_dist_batches_completed" >= 1.0);
        Coord.shutdown coord;
        check Alcotest.bool "200 on /metrics" true
          (contains metrics "HTTP/1.1 200 OK");
        check Alcotest.bool "coordinator metrics in prometheus exposition"
          true
          (contains metrics "icb_dist_batches_completed");
        check Alcotest.bool "search metrics projected too" true
          (contains metrics "icb_executions_total");
        check Alcotest.bool "/status is json with a phase" true
          (contains status "\"phase\"" && contains status "finished");
        check Alcotest.bool "404 on unknown paths" true
          (contains missing "404");
        check Alcotest.bool "the served run still found the bug" true
          (d.Sresult.bugs <> []));
    (* RFC 9110 9.3.2: a HEAD response carries GET's headers, including
       its Content-Length, and no body. *)
    Alcotest.test_case "HEAD answers with GET's headers and no body" `Quick
      (fun () ->
        let coord = Coord.create () in
        let port = Coord.port coord in
        let get_head, get_body = split_response (http_get port "/status") in
        let head_head, head_body =
          split_response (http_get ~meth:"HEAD" port "/status")
        in
        let _, missing_body =
          split_response (http_get ~meth:"HEAD" port "/nope")
        in
        Coord.shutdown coord;
        check Alcotest.bool "GET has a body" true (get_body <> "");
        check Alcotest.string "same headers as GET" get_head head_head;
        check Alcotest.int "HEAD body bytes" 0 (String.length head_body);
        check Alcotest.int "HEAD 404 body bytes" 0
          (String.length missing_body));
    Alcotest.test_case "silent and partial peers are disconnected" `Quick
      (fun () ->
        let coord = Coord.create () in
        let port = Coord.port coord in
        let started = Unix.gettimeofday () in
        let silent, _, _ = raw_connect port in
        let partial, _, oc = raw_connect port in
        output_string oc "ICB";
        flush oc;
        let within () =
          sniff_deadline +. 1. -. (Unix.gettimeofday () -. started)
        in
        let silent_closed = closed_within silent (within ()) in
        let partial_closed = closed_within partial (within ()) in
        Coord.shutdown coord;
        Unix.close silent;
        Unix.close partial;
        check Alcotest.bool "a silent peer is disconnected" true silent_closed;
        check Alcotest.bool "a 3-byte peer is disconnected" true
          partial_closed);
    (* refused by the head cap as soon as the bytes arrive, not by the
       deadline *)
    Alcotest.test_case "an over-long request line gets no 200" `Quick
      (fun () ->
        let coord = Coord.create () in
        let started = Unix.gettimeofday () in
        let reply =
          http_raw (Coord.port coord) ("GET /" ^ String.make 9000 'a')
        in
        let took = Unix.gettimeofday () -. started in
        Coord.shutdown coord;
        check Alcotest.bool "no 200" false (contains reply "200");
        check Alcotest.bool
          (Printf.sprintf "closed after %.2f s" took)
          true
          (took < sniff_deadline /. 2.));
  ]

(* --- wire encoding --------------------------------------------------------- *)

(* A listening loopback socket on an ephemeral port. *)
let listener () =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  match Unix.getsockname lsock with
  | Unix.ADDR_INET (_, port) -> (lsock, port)
  | Unix.ADDR_UNIX _ -> assert false

let proto_tests =
  [
    Alcotest.test_case "protocol messages survive a json round trip" `Quick
      (fun () ->
        let c2s =
          [
            Proto.Hello;
            Proto.Request;
            Proto.Result
              {
                lease = 7;
                report =
                  {
                    Proto.r_params =
                      [ ("max_bound", "3"); ("cache", "false") ];
                    r_snapshot = Json.Obj [ ("x", Json.Int 1) ];
                    r_deferred = [ ([ 0; 1; 2 ], 1); ([], 0) ];
                    r_events = [ Json.String "e" ];
                    r_metrics = None;
                  };
              };
          ]
        in
        List.iter
          (fun m ->
            match
              Proto.c2s_of_json
                (Json.parse (Json.to_string (Proto.c2s_to_json m)))
            with
            | Ok m' -> check Alcotest.bool "c2s round trip" true (m = m')
            | Error e -> Alcotest.fail e)
          c2s;
        let s2c =
          [
            Proto.Job
              {
                Proto.j_meta = [ ("kind", "model"); ("target", "peterson") ];
                j_root_sig = "abc/3/010";
                j_deadlock_is_error = true;
                j_terminal_states_only = false;
                j_cache = true;
                j_events = false;
                j_worker = 4;
              };
            Proto.Batch
              {
                Proto.b_lease = 9;
                b_id = 2;
                b_tag = "icb";
                b_params = [ ("cache", "false") ];
                b_round = 1;
                b_items = [ ([ 1; 2 ], 0); ([], -1) ];
                b_pending = 3;
              };
            Proto.Wait { ms = 50 };
            Proto.Done;
            Proto.Accepted;
            Proto.Stale;
          ]
        in
        List.iter
          (fun m ->
            match
              Proto.s2c_of_json
                (Json.parse (Json.to_string (Proto.s2c_to_json m)))
            with
            | Ok m' -> check Alcotest.bool "s2c round trip" true (m = m')
            | Error e -> Alcotest.fail e)
          s2c);
    Alcotest.test_case "a collector snapshot survives the wire" `Quick
      (fun () ->
        let col = Collector.create Collector.default_options in
        let snap = Collector.snapshot col in
        match Collector.snapshot_of_json (Collector.snapshot_to_json snap) with
        | Error e -> Alcotest.fail e
        | Ok snap' ->
          check Alcotest.int "executions"
            (Collector.snapshot_executions snap)
            (Collector.snapshot_executions snap');
          check Alcotest.int "states"
            (Collector.snapshot_states snap)
            (Collector.snapshot_states snap'));
    Alcotest.test_case
      "a batch whose params do not decode is the worker's error" `Quick
      (fun () ->
        let e = Icb.engine (prog ()) in
        let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen lsock 1;
        let port =
          match Unix.getsockname lsock with
          | Unix.ADDR_INET (_, port) -> port
          | Unix.ADDR_UNIX _ -> assert false
        in
        (* a coordinator that answers the handshake, then leases one
           batch of an icb search whose max_bound is not a number *)
        let server =
          Thread.create
            (fun () ->
              let fd, _ = Unix.accept lsock in
              let ic = Unix.in_channel_of_descr fd in
              let oc = Unix.out_channel_of_descr fd in
              let answer msg =
                ignore (Proto.recv ic);
                Proto.send oc (Proto.s2c_to_json msg)
              in
              answer
                (Proto.Job
                   {
                     Proto.j_meta = [];
                     j_root_sig = Icb_search.Driver.fingerprint e;
                     j_deadlock_is_error = true;
                     j_terminal_states_only = false;
                     j_cache = true;
                     j_events = false;
                     j_worker = 1;
                   });
              answer
                (Proto.Batch
                   {
                     Proto.b_lease = 1;
                     b_id = 0;
                     b_tag = "icb";
                     b_params = [ ("max_bound", "x"); ("cache", "false") ];
                     b_round = 0;
                     b_items = [ ([], 0) ];
                     b_pending = 0;
                   });
              (* until the worker hangs up *)
              ignore (Proto.recv ic);
              Unix.close fd)
            ()
        in
        let r =
          Worker.run ~host:"127.0.0.1" ~port
            ~resolve:(fun _ -> Ok (Worker.Packed e))
            ()
        in
        Thread.join server;
        Unix.close lsock;
        match r with
        | Error msg ->
          check Alcotest.bool (msg ^ " names max_bound") true
            (contains msg "max_bound")
        | Ok _ -> Alcotest.fail "the worker ran the batch");
    Alcotest.test_case "a reset mid-frame is a closed or malformed frame"
      `Quick (fun () ->
        let lsock, port = listener () in
        let peer =
          Thread.create
            (fun () ->
              let fd, _, oc = raw_connect port in
              (* the magic and the version, then nothing *)
              output_string oc Proto.magic;
              output_binary_int oc Proto.version;
              flush oc;
              Unix.sleepf 0.1;
              reset fd)
            ()
        in
        let fd, _ = Unix.accept lsock in
        let r = Proto.recv (Unix.in_channel_of_descr fd) in
        Thread.join peer;
        Unix.close fd;
        Unix.close lsock;
        match r with
        | Error (`Closed | `Malformed _) -> ()
        | Ok _ -> Alcotest.fail "a torn frame decoded");
    Alcotest.test_case "a coordinator reset after the job is the worker's error"
      `Quick (fun () ->
        let e = Icb.engine (prog ()) in
        let lsock, port = listener () in
        let server =
          Thread.create
            (fun () ->
              let fd, _ = Unix.accept lsock in
              let ic = Unix.in_channel_of_descr fd in
              let oc = Unix.out_channel_of_descr fd in
              ignore (Proto.recv ic);
              Proto.send oc
                (Proto.s2c_to_json
                   (Proto.Job
                      {
                        Proto.j_meta = [];
                        j_root_sig = Icb_search.Driver.fingerprint e;
                        j_deadlock_is_error = true;
                        j_terminal_states_only = false;
                        j_cache = true;
                        j_events = false;
                        j_worker = 1;
                      }));
              reset fd)
            ()
        in
        let r =
          Worker.run ~host:"127.0.0.1" ~port
            ~resolve:(fun _ -> Ok (Worker.Packed e))
            ()
        in
        Thread.join server;
        Unix.close lsock;
        match r with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "the worker finished against a reset");
  ]

let () =
  Alcotest.run "dist"
    [
      (* empty: the widest group name this suite had, which sets the
         width Alcotest prints every test name in *)
      ("equivalence", []);
      ("leases", lease_tests);
      ("pipeline", pipeline_tests);
      ("telemetry", telemetry_tests);
      ("resume", resume_tests);
      ("http", http_tests);
      ("proto", proto_tests);
    ]

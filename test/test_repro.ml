(* The repro subsystem: schedule minimization, bundle files, triage. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Sresult = Icb_search.Sresult
module Engine = Icb_search.Engine
module Sched = Icb_repro.Sched
module Minimize = Icb_repro.Minimize
module Bundle = Icb_repro.Bundle
module Store = Icb_repro.Store
module Triage = Icb_repro.Triage
module Api = Icb_chess.Api
module CE = Icb_chess.Chess_engine

let check = Alcotest.check

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let first_bug_options =
  { Collector.default_options with stop_at_first_bug = true }

(* the minimized witness must stand on its own: replay it on a fresh
   engine and demand the same failure *)
let assert_replays (type s) (module E : Engine.S with type state = s) ~key
    (w : Sched.witness) =
  match
    Sched.probe (module E) ~deadlock_is_error:true ~key ~steps:(ref max_int)
      w.Sched.schedule
  with
  | Some w' ->
    check Alcotest.int "replayed preemptions" w.Sched.preemptions
      w'.Sched.preemptions;
    check Alcotest.int "replayed depth" w.Sched.depth w'.Sched.depth
  | None -> Alcotest.fail "minimized witness does not replay"

(* --- schedule surgery ------------------------------------------------------ *)

let sched_tests =
  [
    Alcotest.test_case "count_switches counts adjacent changes" `Quick
      (fun () ->
        check Alcotest.int "empty" 0 (Sched.count_switches []);
        check Alcotest.int "constant" 0 (Sched.count_switches [ 1; 1; 1 ]);
        check Alcotest.int "alternating" 3 (Sched.count_switches [ 0; 1; 0; 1 ]);
        check Alcotest.int "runs" 2 (Sched.count_switches [ 0; 0; 1; 1; 0 ]));
    Alcotest.test_case "delay-merge pulls the preempted run forward" `Quick
      (fun () ->
        check
          (Alcotest.option (Alcotest.list Alcotest.int))
          "[0;0;1;1;0] without the switch at 2"
          (Some [ 0; 0; 0; 1; 1 ])
          (Sched.remove_preemption [ 0; 0; 1; 1; 0 ] ~at:2);
        check
          (Alcotest.option (Alcotest.list Alcotest.int))
          "middle removal keeps the later runs"
          (Some [ 0; 0; 1; 2; 1 ])
          (Sched.remove_preemption [ 0; 1; 0; 2; 1 ] ~at:1));
    Alcotest.test_case "delay-merge refuses impossible removals" `Quick
      (fun () ->
        check
          (Alcotest.option (Alcotest.list Alcotest.int))
          "preempted thread never runs again" None
          (Sched.remove_preemption [ 0; 1; 1 ] ~at:1);
        check
          (Alcotest.option (Alcotest.list Alcotest.int))
          "index inside a run" None
          (Sched.remove_preemption [ 0; 0; 1 ] ~at:1));
    Alcotest.test_case "probe truncates trailing steps; replay_prefix returns \
                        them" `Quick (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:true in
        let bug =
          match Icb.check prog with
          | Some b -> b
          | None -> Alcotest.fail "expected the bluetooth bug"
        in
        let module E = (val Icb.engine prog) in
        let padded = bug.Sresult.schedule @ [ 9; 9; 9 ] in
        (match
           Sched.probe (module E) ~deadlock_is_error:true ~key:bug.key
             ~steps:(ref max_int) padded
         with
        | Some w ->
          check Alcotest.int "witness stops at the bug"
            (List.length bug.schedule)
            w.Sched.depth
        | None -> Alcotest.fail "padded schedule should still reproduce");
        let final, rest = Explore.replay_prefix (module E) padded in
        check
          (Alcotest.list Alcotest.int)
          "unconsumed suffix" [ 9; 9; 9 ] rest;
        match E.status final with
        | Engine.Failed { key; _ } ->
          check Alcotest.string "same failure" bug.key key
        | _ -> Alcotest.fail "replay_prefix did not stop at the failure");
  ]

(* --- minimization ---------------------------------------------------------- *)

(* Enumerate every execution of a (small) buggy model and return the
   buggy schedules with the fewest and the most preemptions — the worst
   one is a real, replayable, deliberately preemption-padded witness. *)
let extremes (type s) (module E : Engine.S with type state = s) =
  let key = ref None in
  let best = ref None and worst = ref None in
  let rec dfs st =
    match E.status st with
    | Engine.Running -> List.iter (fun t -> dfs (E.step st t)) (E.enabled st)
    | Engine.Failed { key = k; _ } ->
      if !key = None then key := Some k;
      if !key = Some k then begin
        let c = E.preemptions st and sched = E.schedule st in
        (match !best with
        | Some (c0, _) when c0 <= c -> ()
        | _ -> best := Some (c, sched));
        match !worst with
        | Some (c0, _) when c0 >= c -> ()
        | _ -> worst := Some (c, sched)
      end
    | Engine.Terminated | Engine.Deadlock _ -> ()
  in
  dfs (E.initial ());
  match (!key, !best, !worst) with
  | Some key, Some best, Some worst -> (key, best, worst)
  | _ -> Alcotest.fail "expected a buggy execution"

let minimize_tests =
  [
    Alcotest.test_case "a preemption-padded witness shrinks to the proven \
                        minimum" `Quick (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:true in
        let module E = (val Icb.engine prog) in
        let key, (min_c, _), (max_c, worst) = extremes (module E) in
        check Alcotest.bool
          (Printf.sprintf "the space has padded witnesses (%d > %d)" max_c
             min_c)
          true (max_c > min_c);
        (* pad the tail too: minimization must strip both *)
        let s =
          ok "minimize"
            (Minimize.run (module E) ~key (worst @ [ 0; 0; 0 ]))
        in
        check Alcotest.int "original is the truncated input"
          (List.length worst) s.Minimize.original.Sched.depth;
        check Alcotest.int "reached the true minimum" min_c
          s.Minimize.minimized.Sched.preemptions;
        check Alcotest.bool "minimality proven" true s.Minimize.proven_minimal;
        check Alcotest.bool "candidates were replayed" true
          (s.Minimize.candidates > 1);
        assert_replays (module E) ~key s.Minimize.minimized);
    Alcotest.test_case "canonicalization: different witnesses converge" `Quick
      (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:true in
        let module E = (val Icb.engine prog) in
        let key, (_, best), (_, worst) = extremes (module E) in
        let a = ok "minimize best" (Minimize.run (module E) ~key best) in
        let b = ok "minimize worst" (Minimize.run (module E) ~key worst) in
        check
          (Alcotest.list Alcotest.int)
          "same canonical schedule" a.Minimize.minimized.Sched.schedule
          b.Minimize.minimized.Sched.schedule);
    Alcotest.test_case "a schedule that does not reproduce is rejected" `Quick
      (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:true in
        let module E = (val Icb.engine prog) in
        match Minimize.run (module E) ~key:"no-such-bug" [ 0; 0 ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected rejection");
    Alcotest.test_case "random-found WSQ bug minimizes below the ICB witness"
      `Slow (fun () ->
        let prog =
          Icb_models.Workstealing.program
            Icb_models.Workstealing.Bug_unlocked_steal
        in
        let rw =
          Icb.run
            ~options:
              { first_bug_options with max_executions = Some 50_000 }
            ~strategy:(Explore.Random_walk { seed = 2007L })
            prog
        in
        let bug =
          match rw.Sresult.bugs with
          | b :: _ -> b
          | [] -> Alcotest.fail "random walk found no bug"
        in
        let module E = (val Icb.engine prog) in
        let s = ok "minimize" (Minimize.bug (module E) bug) in
        let m = s.Minimize.minimized in
        check Alcotest.bool
          (Printf.sprintf "no more preemptions than found (%d <= %d)"
             m.Sched.preemptions bug.preemptions)
          true
          (m.Sched.preemptions <= bug.preemptions);
        check Alcotest.bool "proven minimal" true s.Minimize.proven_minimal;
        (* ICB finds every bug within the minimized bound, including this
           key, and its witness cannot have fewer preemptions than a
           proven-minimal one *)
        let icb =
          Icb.run
            ~strategy:
              (Explore.Icb
                 { max_bound = Some m.Sched.preemptions; cache = false })
            prog
        in
        let same =
          List.find
            (fun (b : Sresult.bug) -> b.key = bug.key)
            icb.Sresult.bugs
        in
        check Alcotest.int "matches the ICB witness bound" same.preemptions
          m.Sched.preemptions;
        assert_replays (module E) ~key:bug.key m);
    Alcotest.test_case "chess engine: a lost update minimizes to one \
                        preemption" `Quick (fun () ->
        let body () =
          let d = Api.Shared.make 0 in
          let finished = Api.Semaphore.create 0 in
          for _ = 1 to 2 do
            Api.spawn (fun () ->
                let v = Api.Shared.get d in
                Api.Shared.set d (v + 1);
                Api.Semaphore.release finished)
          done;
          Api.Semaphore.acquire finished;
          Api.Semaphore.acquire finished;
          if Api.Shared.get d <> 2 then failwith "lost update"
        in
        let module E = (val CE.engine body) in
        let rw =
          Explore.run
            (module E)
            ~options:
              { first_bug_options with max_executions = Some 10_000 }
            (Explore.Random_walk { seed = 5L })
        in
        let bug =
          match rw.Sresult.bugs with
          | b :: _ -> b
          | [] -> Alcotest.fail "random walk found no lost update"
        in
        check Alcotest.bool "found with extra preemptions" true
          (bug.preemptions >= 1);
        let s = ok "minimize" (Minimize.bug (module E) bug) in
        check Alcotest.int "one preemption suffices" 1
          s.Minimize.minimized.Sched.preemptions;
        check Alcotest.bool "proven" true s.Minimize.proven_minimal;
        assert_replays (module E) ~key:bug.key s.Minimize.minimized);
  ]

(* --- telemetry ------------------------------------------------------------- *)

let telemetry_tests =
  [
    Alcotest.test_case "minimization is telemetry-neutral and emits the \
                        trajectory" `Quick (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:true in
        let module E = (val Icb.engine prog) in
        let key, _, (_, worst) = extremes (module E) in
        let silent = ok "silent" (Minimize.run (module E) ~key worst) in
        let events = ref [] in
        let emit =
          Icb_obs.Emit.live ~worker:0
            ~clock:(fun () -> 0.0)
            ~push:(fun env -> events := env :: !events)
        in
        let traced = ok "traced" (Minimize.run (module E) ~emit ~key worst) in
        check
          (Alcotest.list Alcotest.int)
          "byte-identical minimized schedule"
          silent.Minimize.minimized.Sched.schedule
          traced.Minimize.minimized.Sched.schedule;
        let events = List.rev_map (fun e -> e.Icb_obs.Event.ev) !events in
        let has p = List.exists p events in
        check Alcotest.bool "started event" true
          (has (function
            | Icb_obs.Event.Minimize_started { key = k; _ } -> k = key
            | _ -> false));
        check Alcotest.bool "improvement trajectory" true
          (has (function
            | Icb_obs.Event.Minimize_improved _ -> true
            | _ -> false));
        check Alcotest.bool "finished event agrees with the result" true
          (has (function
            | Icb_obs.Event.Minimize_finished { preemptions; length; _ } ->
              preemptions = traced.Minimize.minimized.Sched.preemptions
              && length = traced.Minimize.minimized.Sched.depth
            | _ -> false)));
  ]

(* --- bundles --------------------------------------------------------------- *)

let sample_bundle () =
  {
    Bundle.kind = "model";
    target = "bluetooth:bug";
    strategy = "random";
    seed = 2007L;
    bug_key = "assert:stopped";
    bug_msg = "assertion failed";
    schedule = [ 0; 0; 1; 2; 1 ];
    preemptions = 1;
    context_switches = 3;
    depth = 5;
    found_schedule = [ 0; 0; 1; 2; 1; 1 ];
    found_preemptions = 3;
    found_depth = 6;
    minimized = true;
    proven_minimal = true;
    deadlocks_are_errors = true;
    fingerprint = "assert:stopped@deadbeefdeadbeef";
    meta = [ ("granularity", "sync") ];
  }

let bundle_tests =
  [
    Alcotest.test_case "save/load round-trips" `Quick (fun () ->
        let dir = temp_dir "bundle" in
        let path = Filename.concat dir "x.repro" in
        let t = sample_bundle () in
        Bundle.save ~path t;
        let t' = Bundle.load path in
        check Alcotest.bool "equal" true (t = t'));
    Alcotest.test_case "corruption and truncation are rejected" `Quick
      (fun () ->
        let dir = temp_dir "bundle" in
        let path = Filename.concat dir "x.repro" in
        Bundle.save ~path (sample_bundle ());
        let bytes =
          let ic = open_in_bin path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          s
        in
        let write s =
          let oc = open_out_bin path in
          output_string oc s;
          close_out oc
        in
        let expect_corrupt what =
          match Bundle.load path with
          | exception Bundle.Corrupt _ -> ()
          | _ -> Alcotest.failf "%s accepted" what
        in
        (* flip one payload byte *)
        let flipped = Bytes.of_string bytes in
        Bytes.set flipped 40
          (Char.chr (Char.code (Bytes.get flipped 40) lxor 0xff));
        write (Bytes.to_string flipped);
        expect_corrupt "bit-rotted bundle";
        (* truncate *)
        write (String.sub bytes 0 (String.length bytes - 5));
        expect_corrupt "truncated bundle";
        (* wrong magic *)
        write ("XXXXXXXX" ^ String.sub bytes 8 (String.length bytes - 8));
        expect_corrupt "foreign file");
    Alcotest.test_case "verify replays and cross-checks the measurements"
      `Quick (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:true in
        let bug =
          match Icb.check prog with
          | Some b -> b
          | None -> Alcotest.fail "expected the bluetooth bug"
        in
        let module E = (val Icb.engine prog) in
        let t =
          {
            (sample_bundle ()) with
            Bundle.bug_key = bug.Sresult.key;
            schedule = bug.schedule;
            preemptions = bug.preemptions;
            context_switches = bug.context_switches;
            depth = bug.depth;
          }
        in
        (match Bundle.verify (module E) t with
        | Ok w ->
          check Alcotest.int "verified preemptions" bug.preemptions
            w.Sched.preemptions
        | Error msg -> Alcotest.failf "verify rejected a good bundle: %s" msg);
        (match
           Bundle.verify (module E)
             { t with Bundle.preemptions = t.Bundle.preemptions + 1 }
         with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "tampered stats accepted");
        match Bundle.verify (module E) { t with Bundle.bug_key = "other" } with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "wrong key accepted");
    Alcotest.test_case "a checksummed payload that is not Marshal data is \
                        rejected" `Quick (fun () ->
        let dir = temp_dir "bundle" in
        let path = Filename.concat dir "x.repro" in
        let payload = String.make 64 'x' in
        let b = Buffer.create 128 in
        Buffer.add_string b "ICBREPR\x01";
        Buffer.add_int32_be b 1l;
        Buffer.add_string b (Digest.string payload);
        Buffer.add_int32_be b (Int32.of_int (String.length payload));
        Buffer.add_string b payload;
        let oc = open_out_bin path in
        Buffer.output_buffer oc b;
        close_out oc;
        match Bundle.load path with
        | exception Bundle.Corrupt _ -> ()
        | _ -> Alcotest.fail "garbage payload accepted");
  ]

(* --- store + triage -------------------------------------------------------- *)

let triage_tests =
  [
    Alcotest.test_case "drop writes one bundle per bug and dedups" `Quick
      (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:true in
        let bug =
          match Icb.check prog with
          | Some b -> b
          | None -> Alcotest.fail "expected the bluetooth bug"
        in
        let module E = (val Icb.engine prog) in
        let dir = temp_dir "store" in
        let drop () =
          Store.drop
            (module E)
            ~dir ~deadlock_is_error:true ~kind:"model" ~target:"bluetooth:bug"
            ~strategy:"icb:3" ~seed:2007L [ bug ]
        in
        (match drop () with
        | Ok [ path ] ->
          check Alcotest.bool "file exists" true (Sys.file_exists path);
          let t = Bundle.load path in
          check Alcotest.string "key" bug.Sresult.key t.Bundle.bug_key;
          check Alcotest.bool "not minimized yet" false t.Bundle.minimized
        | Ok paths ->
          Alcotest.failf "expected one bundle, got %d" (List.length paths)
        | Error msg -> Alcotest.fail msg);
        match drop () with
        | Ok [] -> ()
        | Ok _ -> Alcotest.fail "re-drop should be a no-op"
        | Error msg -> Alcotest.fail msg);
    Alcotest.test_case "the same bug found by two strategies triages into one \
                        cluster" `Slow (fun () ->
        let prog =
          Icb_models.Workstealing.program
            Icb_models.Workstealing.Bug_unlocked_steal
        in
        let module E = (val Icb.engine prog) in
        let icb_bug =
          match
            (Icb.run ~options:first_bug_options
               ~strategy:(Explore.Icb { max_bound = Some 3; cache = false })
               prog)
              .Sresult.bugs
          with
          | b :: _ -> b
          | [] -> Alcotest.fail "icb found no bug"
        in
        let rw_bug =
          let r =
            Icb.run
              ~options:
                {
                  Collector.default_options with
                  max_executions = Some 50_000;
                }
              ~strategy:(Explore.Random_walk { seed = 2007L })
              prog
          in
          match
            List.find_opt
              (fun (b : Sresult.bug) -> b.key = icb_bug.Sresult.key)
              r.Sresult.bugs
          with
          | Some b -> b
          | None -> Alcotest.fail "random walk never hit the icb bug's key"
        in
        let s1 = ok "minimize icb" (Minimize.bug (module E) icb_bug) in
        let s2 = ok "minimize random" (Minimize.bug (module E) rw_bug) in
        let mk strategy (s : Minimize.stats) (bug : Sresult.bug) =
          {
            Bundle.kind = "model";
            target = "work-stealing-queue:bug";
            strategy;
            seed = 2007L;
            bug_key = bug.key;
            bug_msg = bug.msg;
            schedule = s.minimized.Sched.schedule;
            preemptions = s.minimized.Sched.preemptions;
            context_switches = s.minimized.Sched.context_switches;
            depth = s.minimized.Sched.depth;
            found_schedule = bug.schedule;
            found_preemptions = bug.preemptions;
            found_depth = bug.depth;
            minimized = true;
            proven_minimal = s.proven_minimal;
            deadlocks_are_errors = true;
            fingerprint =
              Triage.fingerprint (module E) ~key:bug.key
                s.minimized.Sched.schedule;
            meta = [];
          }
        in
        let dir = temp_dir "triage" in
        let b1 = mk "icb" s1 icb_bug and b2 = mk "random" s2 rw_bug in
        Bundle.save ~path:(Filename.concat dir (Store.bundle_filename b1)) b1;
        Bundle.save ~path:(Filename.concat dir (Store.bundle_filename b2)) b2;
        let r = Triage.scan dir in
        check Alcotest.int "bundles read" 2 r.Triage.total;
        check Alcotest.int "one cluster" 1 (List.length r.Triage.clusters);
        let c = List.hd r.Triage.clusters in
        check Alcotest.int
          "canonical minimization collapsed the fingerprints" 1
          (List.length c.Triage.cl_fingerprints);
        check
          (Alcotest.list Alcotest.string)
          "both strategies" [ "icb"; "random" ] c.Triage.cl_strategies;
        check Alcotest.int "min preemptions"
          s1.Minimize.minimized.Sched.preemptions c.Triage.cl_min_preemptions;
        check Alcotest.bool "new on first sight" true c.Triage.cl_new;
        (* a corrupt file is reported, never aborts the scan *)
        let oc = open_out_bin (Filename.concat dir "junk.repro") in
        output_string oc "not a bundle";
        close_out oc;
        let known = Triage.known_fingerprints (Triage.to_json r) in
        let r2 = Triage.scan ~known dir in
        check Alcotest.int "corrupt file noted" 1 (List.length r2.Triage.corrupt);
        check Alcotest.int "still one cluster" 1 (List.length r2.Triage.clusters);
        check Alcotest.bool "known on second sight" false
          (List.hd r2.Triage.clusters).Triage.cl_new);
  ]

let () =
  Alcotest.run "repro"
    [
      ("sched", sched_tests);
      ("minimize", minimize_tests);
      ("telemetry", telemetry_tests);
      ("bundle", bundle_tests);
      ("triage", triage_tests);
    ]

(* The resilience layer: wall-clock budgets, checkpoint files, crash
   containment and divergence detection.  Resuming a killed search to
   the uninterrupted result is test_conformance's interrupted cells, and
   for a deadline, whose moment no test can fix, this suite's sweep. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult
module Engine = Icb_search.Engine
module Registry = Icb_models.Registry
module Api = Icb_chess.Api
module CE = Icb_chess.Chess_engine

open Harness

let icb_unbounded = Explore.Icb { max_bound = None; cache = false }

(* --- wall-clock budgets -------------------------------------------------- *)

(* Every runner applies the deadline between work items, so a run it
   stops resumes to the uninterrupted totals.  40 deadlines are spread
   over the time one uninterrupted transaction-manager icb:3 search
   takes; some of them must fire. *)
let deadline_sweep ~domains () =
  let e =
    Icb.engine (Icb_models.Transaction.program Icb_models.Transaction.Correct)
  in
  let strategy = Explore.Icb { max_bound = Some 3; cache = false } in
  let totals (r : Sresult.t) =
    (r.executions, r.distinct_states, r.total_steps)
  in
  let t0 = Unix.gettimeofday () in
  let whole = Explore.run e ~domains strategy in
  let span = Unix.gettimeofday () -. t0 in
  let fired = ref 0 in
  for k = 1 to 40 do
    let path = tmp_ckpt () in
    let deadline = Collector.deadline_in (span *. float_of_int k /. 40.) in
    let r =
      Explore.run e ~domains ~checkpoint_out:path
        ~options:{ Collector.default_options with deadline = Some deadline }
        strategy
    in
    if r.Sresult.stop_reason = Some Sresult.Deadline_exceeded then begin
      incr fired;
      check
        Alcotest.(triple int int int)
        (Printf.sprintf "deadline %d of 40: executions, states and steps" k)
        (totals whole)
        (totals (Explore.resume e ~domains (Checkpoint.load path)))
    end;
    Sys.remove path
  done;
  check Alcotest.bool "some deadlines fired" true (!fired > 0)

(* Two threads spin on a volatile, so no execution ever ends, and each
   step of one defers a preemption by the other.  A deadline and a step
   limit must still stop the run, serially and on 2 domains: the item in
   flight gives up and is queued again without its deferrals, so the
   checkpoint holds only unrun items at the root, and its resume stops
   again. *)
let spin_src =
  {|volatile var g: int;
proc spinner() { while (g == 0) { } }
main { spawn spinner(); while (g == 0) { } }|}

let spin_stops () =
  let prog = Icb.compile spin_src in
  let limits =
    [
      ( "a deadline",
        (fun () ->
          {
            Collector.default_options with
            deadline = Some (Collector.deadline_in 0.05);
          }),
        Sresult.Deadline_exceeded );
      ( "a step limit",
        (fun () ->
          { Collector.default_options with max_total_steps = Some 5000 }),
        Sresult.Step_limit );
    ]
  in
  let strategies =
    [
      ("icb", icb_unbounded);
      ("random", Explore.Random_walk { seed = 3L });
    ]
  in
  List.iter
    (fun (what, options, reason) ->
      List.iter
        (fun (sname, strategy) ->
          List.iter
            (fun domains ->
              let label =
                Printf.sprintf "%s, %s on %d domain(s)" what sname domains
              in
              let path = tmp_ckpt () in
              let r =
                Icb.run ~options:(options ()) ~domains ~checkpoint_out:path
                  ~strategy prog
              in
              let stopped (r : Sresult.t) =
                (r.executions, r.stop_reason = Some reason)
              in
              check
                Alcotest.(pair int bool)
                (label ^ ": no execution, stopped by its limit")
                (0, true) (stopped r);
              let f = Checkpoint.to_v3 (Checkpoint.load path) in
              check
                Alcotest.(pair bool int)
                (label ^ ": unrun root items, nothing deferred")
                (true, 0)
                ( f.Checkpoint.v3_work <> []
                  && List.for_all (fun (p, _) -> p = []) f.Checkpoint.v3_work,
                  List.length f.Checkpoint.v3_next );
              check
                Alcotest.(pair int bool)
                (label ^ ": the resume stops too")
                (0, true)
                (stopped
                   (Icb.resume ~options:(options ()) ~domains prog
                      (Checkpoint.load path)));
              Sys.remove path)
            [ 1; 2 ])
        strategies)
    limits

let deadline_tests =
  [
    Alcotest.test_case "an expired deadline stops the search with coverage"
      `Quick (fun () ->
        (* huge space, deadline already in the past: the search must stop
           almost immediately yet still report the states it did reach *)
        let r =
          Icb.run
            ~options:
              {
                Collector.default_options with
                deadline = Some (Unix.gettimeofday () -. 1.0);
              }
            ~strategy:icb_unbounded
            (Icb_models.Dryad.program Icb_models.Dryad.Correct)
        in
        check Alcotest.bool "not complete" false r.Sresult.complete;
        check Alcotest.bool "deadline reason" true
          (r.stop_reason = Some Sresult.Deadline_exceeded);
        check Alcotest.bool "non-empty coverage" true (r.distinct_states > 0));
    Alcotest.test_case "a short deadline yields a partial result" `Quick
      (fun () ->
        let r =
          Icb.run
            ~options:
              {
                Collector.default_options with
                deadline = Some (Collector.deadline_in 0.2);
              }
            ~strategy:icb_unbounded
            (Icb_models.Dryad.program Icb_models.Dryad.Correct)
        in
        check Alcotest.bool "not complete" false r.Sresult.complete;
        check Alcotest.bool "made progress" true (r.executions > 0);
        check Alcotest.bool "deadline reason" true
          (r.stop_reason = Some Sresult.Deadline_exceeded));
    Alcotest.test_case "other limits report their own stop reason" `Quick
      (fun () ->
        let r =
          Icb.run
            ~options:
              { Collector.default_options with max_states = Some 10 }
            ~strategy:(Explore.Dfs { cache = false })
            (Icb_models.Workstealing.program Icb_models.Workstealing.Correct)
        in
        check Alcotest.bool "state-limit reason" true
          (r.Sresult.stop_reason = Some Sresult.State_limit);
        let r =
          Icb.run
            ~options:
              { Collector.default_options with max_executions = Some 3 }
            ~strategy:icb_unbounded
            (Icb_models.Peterson.program Icb_models.Peterson.Correct)
        in
        check Alcotest.bool "execution-limit reason" true
          (r.Sresult.stop_reason = Some Sresult.Execution_limit));
    Alcotest.test_case "on_progress fires once per execution" `Quick
      (fun () ->
        let calls = ref 0 in
        let last = ref 0 in
        let r =
          Icb.run
            ~options:
              {
                Collector.default_options with
                on_progress =
                  Some
                    (fun p ->
                      incr calls;
                      check Alcotest.bool "executions increase" true
                        (p.Collector.p_executions > !last);
                      last := p.Collector.p_executions);
              }
            ~strategy:icb_unbounded
            (Icb_models.Bluetooth.program ~bug:false)
        in
        check Alcotest.int "one call per execution" r.Sresult.executions
          !calls);
    Alcotest.test_case "40 deadline stops resume exactly, serially" `Quick
      (deadline_sweep ~domains:1);
    Alcotest.test_case "40 deadline stops resume exactly on 2 domains" `Quick
      (deadline_sweep ~domains:2);
    Alcotest.test_case "a spin that never ends stops at its limits" `Quick
      spin_stops;
  ]

(* --- checkpoint / resume -------------------------------------------------- *)

(* A program whose initial state has already ended: ICB's roots record
   its only execution.  Stopped there by the first bug, or finished, the
   run still writes its checkpoint, and the checkpoint resumes. *)
let roots_checkpoint () =
  let first_bug = { Collector.default_options with stop_at_first_bug = true } in
  List.iter
    (fun (src, options, want) ->
      let prog = Icb.compile src in
      let path = tmp_ckpt () in
      Sys.remove path;
      let r =
        Icb.run ~options ~checkpoint_out:path ~strategy:icb_unbounded prog
      in
      check Alcotest.bool (src ^ ": checkpoint written") true
        (Sys.file_exists path);
      let resumed = Icb.resume ~options prog (Checkpoint.load path) in
      Sys.remove path;
      List.iter
        (fun (what, (r : Sresult.t)) ->
          check
            Alcotest.(triple int (list string) string)
            (Printf.sprintf "%s: %s executions, bugs and stop reason" src what)
            want
            ( r.executions,
              bug_keys r,
              Option.fold ~none:"-" ~some:Sresult.stop_reason_string
                r.stop_reason ))
        [ ("run", r); ("resumed", resumed) ])
    [
      ( {|main { assert(false, "x"); }|},
        first_bug,
        (1, [ "assert:x" ], "stopped at first bug") );
      ({|main { }|}, Collector.default_options, (1, [], "-"));
    ]

let checkpoint_tests =
  [
    Alcotest.test_case "strategies without checkpoint support say so" `Quick
      (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:false in
        match
          Icb.run ~checkpoint_out:"/tmp/never-written.ckpt"
            ~strategy:Explore.Sleep_dfs prog
        with
        | exception Invalid_argument msg ->
          check Alcotest.bool "non-empty diagnostic" true
            (String.length msg > 0)
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "a search its roots finish writes its checkpoint"
      `Quick roots_checkpoint;
  ]

(* --- checkpoint file robustness ------------------------------------------ *)

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A frame around [payload] whose digest is right: bytes that only a
   writer recomputing the digest could produce. *)
let frame ~magic ~version payload =
  let b = Buffer.create (String.length payload + 40) in
  Buffer.add_string b magic;
  Buffer.add_int32_be b (Int32.of_int version);
  Buffer.add_string b (Digest.string payload);
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

let expect_corrupt path =
  match Checkpoint.load path with
  | exception Checkpoint.Corrupt msg ->
    check Alcotest.bool "message names the file" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected Checkpoint.Corrupt"

let format_tests =
  [
    Alcotest.test_case "round trip preserves strategy and metadata" `Quick
      (fun () ->
        let path = tmp_ckpt () in
        let prog =
          Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
        in
        let _ =
          Icb.run
            ~options:
              { Collector.default_options with max_executions = Some 10 }
            ~checkpoint_out:path
            ~checkpoint_meta:[ ("kind", "model"); ("target", "peterson") ]
            ~strategy:icb_unbounded prog
        in
        let ckpt = Checkpoint.load path in
        check Alcotest.string "strategy" "icb" ckpt.Checkpoint.strategy;
        check
          (Alcotest.option Alcotest.string)
          "meta" (Some "peterson")
          (Checkpoint.meta_find ckpt "target");
        check Alcotest.bool "describes itself" true
          (String.length (Checkpoint.describe ckpt) > 0);
        Sys.remove path);
    Alcotest.test_case "a truncated checkpoint is rejected, never resumed"
      `Quick (fun () ->
        let path = tmp_ckpt () in
        let _ =
          Icb.run
            ~options:
              { Collector.default_options with max_executions = Some 10 }
            ~checkpoint_out:path ~strategy:icb_unbounded
            (Icb_models.Peterson.program
               Icb_models.Peterson.Bug_check_before_set)
        in
        let whole = read_file path in
        (* a mid-write kill can leave any prefix: try several cut points *)
        List.iter
          (fun frac ->
            let cut = String.length whole * frac / 100 in
            write_file path (String.sub whole 0 cut);
            expect_corrupt path)
          [ 3; 20; 50; 99 ];
        Sys.remove path);
    Alcotest.test_case "garbage and future versions are rejected" `Quick
      (fun () ->
        let path = tmp_ckpt () in
        write_file path "this is not a checkpoint at all";
        expect_corrupt path;
        (* right magic, future version *)
        write_file path "ICBCKPT\x01\x00\x00\x00\x63then-anything";
        expect_corrupt path;
        (* flipped payload byte: checksum must catch it *)
        let good = tmp_ckpt () in
        let _ =
          Icb.run
            ~options:
              { Collector.default_options with max_executions = Some 5 }
            ~checkpoint_out:good ~strategy:icb_unbounded
            (Icb_models.Peterson.program Icb_models.Peterson.Correct)
        in
        let whole = Bytes.of_string (read_file good) in
        let last = Bytes.length whole - 1 in
        Bytes.set whole last
          (Char.chr (Char.code (Bytes.get whole last) lxor 0xff));
        write_file path (Bytes.to_string whole);
        expect_corrupt path;
        Sys.remove path;
        Sys.remove good);
    Alcotest.test_case "a checkpoint never resumes the wrong program" `Quick
      (fun () ->
        let path = tmp_ckpt () in
        let _ =
          Icb.run
            ~options:
              { Collector.default_options with max_executions = Some 50 }
            ~checkpoint_out:path ~strategy:icb_unbounded
            (Icb_models.Dryad.program Icb_models.Dryad.Correct)
        in
        let ckpt = Checkpoint.load path in
        (match
           Icb.resume (Icb_models.Bluetooth.program ~bug:false) ckpt
         with
        | exception Invalid_argument _ -> ()
        | _ ->
          (* a tiny program can legitimately replay a prefix of a bigger
             one only if every scheduled thread exists and is enabled;
             reaching here silently would be the dangerous outcome *)
          Alcotest.fail "resume against the wrong program must not succeed");
        Sys.remove path);
    (* The domain pool shares the serial path's resume validation:
       another program's checkpoint, or another strategy's, is refused
       before anything runs. *)
    Alcotest.test_case "the domain pool refuses a foreign checkpoint" `Quick
      (fun () ->
        let stopped strategy prog =
          let path = tmp_ckpt () in
          ignore
            (Icb.run
               ~options:
                 { Collector.default_options with max_executions = Some 50 }
               ~checkpoint_out:path ~strategy prog);
          let c = Checkpoint.load path in
          Sys.remove path;
          c
        in
        let bluetooth = Icb_models.Bluetooth.program ~bug:false in
        let refused what ckpt =
          match
            Icb_search.Driver.run
              (fun _ -> Icb.engine bluetooth)
              ~resume_from:ckpt ~domains:2
              (Icb_search.Strategies.icb (Icb.engine bluetooth)
                 ~max_bound:None ~cache:false)
          with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s: the pool resumed it" what
        in
        refused "another program's checkpoint"
          (stopped icb_unbounded
             (Icb_models.Dryad.program Icb_models.Dryad.Correct));
        refused "another strategy's checkpoint"
          (stopped (Explore.Dfs { cache = false }) bluetooth));
    (* shorter than a Marshal header, under a valid digest *)
    Alcotest.test_case "a checksummed 4-byte payload is rejected" `Quick
      (fun () ->
        let path = tmp_ckpt () in
        write_file path (frame ~magic:"ICBCKPT\x01" ~version:3 "junk");
        expect_corrupt path;
        Sys.remove path);
  ]

(* --- crash containment ---------------------------------------------------- *)

(* A real engine wrapped so that stepping thread [tid] (any thread,
   without [tid]) at depth [at] explodes — simulating an interpreter bug
   or resource blow-up. *)
let crashy ?tid:crash_tid prog ~at exn =
  let module Base = (val Icb.engine prog) in
  (module struct
    include Base

    let step st t =
      if Base.depth st = at && Option.fold ~none:true ~some:(( = ) t) crash_tid
      then raise exn
      else Base.step st t
  end : Engine.S
    with type state = Icb_search.Mach_engine.state)

(* Every step at depth 3 of Peterson (check-before-set) raises, so most
   executions end in a crash.  A search stopped by each cap from 1 to 40
   and resumed must run what the uninterrupted one runs: a crash is the
   last thing its item records, so a cap there leaves nothing to redo. *)
let crash_resume () =
  let prog =
    Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
  in
  let env = Icb_search.Strategy.env_of_prog prog in
  let e = crashy prog ~at:3 (Failure "boom") in
  List.iter
    (fun strategy ->
      let whole = Explore.run e ~env strategy in
      let name = Explore.strategy_name strategy in
      check Alcotest.bool (name ^ " records crashes") true
        (List.mem "engine-crash:Failure" (bug_keys whole));
      for cap = 1 to 40 do
        let path = tmp_ckpt () in
        ignore
          (Explore.run e ~env ~checkpoint_out:path
             ~options:
               { Collector.default_options with max_executions = Some cap }
             strategy);
        let r = Explore.resume e (Checkpoint.load path) in
        Sys.remove path;
        check
          (Alcotest.pair Alcotest.int Alcotest.int)
          (Printf.sprintf "%s stopped at %d: executions and steps" name cap)
          (whole.Sresult.executions, whole.Sresult.total_steps)
          (r.Sresult.executions, r.Sresult.total_steps)
      done)
    [
      icb_unbounded;
      Explore.Variable_bound { n = 2; cache = false };
      Explore.Thread_bound { n = 1; cache = false };
      Explore.Dfs { cache = false };
      Explore.Most_enabled { cache = false };
    ]

let crash_tests =
  [
    Alcotest.test_case "an engine crash becomes a replayable bug" `Quick
      (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:false in
        let e = crashy prog ~at:2 ~tid:0 (Failure "injected engine crash") in
        let r = Explore.run e icb_unbounded in
        let crash =
          List.find_opt
            (fun (b : Sresult.bug) ->
              String.length b.key >= 12
              && String.sub b.key 0 12 = "engine-crash")
            r.Sresult.bugs
        in
        match crash with
        | None -> Alcotest.fail "expected a contained engine-crash bug"
        | Some b ->
          check Alcotest.string "keyed by the exception" "engine-crash:Failure"
            b.Sresult.key;
          check Alcotest.bool "search went on past the crash" true
            (r.Sresult.executions > 1);
          (* the recorded schedule replays straight into the crash *)
          (match Explore.replay e b.Sresult.schedule with
          | exception Failure msg ->
            check Alcotest.string "same crash" "injected engine crash" msg
          | _ -> Alcotest.fail "replay should reproduce the crash"));
    Alcotest.test_case "Stack_overflow in a step is contained too" `Quick
      (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:false in
        let e = crashy prog ~at:3 ~tid:0 Stack_overflow in
        let r = Explore.run e icb_unbounded in
        check Alcotest.bool "contained" true
          (List.exists
             (fun (b : Sresult.bug) ->
               b.Sresult.key = "engine-crash:Stack_overflow")
             r.Sresult.bugs));
    Alcotest.test_case "crashes do not abort dfs, sleep-dfs or random" `Quick
      (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:false in
        List.iter
          (fun strategy ->
            let e = crashy prog ~at:2 ~tid:0 (Failure "boom") in
            let r =
              Explore.run e
                ~options:
                  {
                    Collector.default_options with
                    max_executions = Some 200;
                  }
                strategy
            in
            check Alcotest.bool
              (Explore.strategy_name strategy ^ " contained the crash")
              true
              (List.exists
                 (fun (b : Sresult.bug) ->
                   b.Sresult.key = "engine-crash:Failure")
                 r.Sresult.bugs))
          [
            Explore.Dfs { cache = false };
            Explore.Sleep_dfs;
            Explore.Random_walk { seed = 1L };
            Explore.Most_enabled { cache = false };
          ]);
    Alcotest.test_case "a search stopped at a crash resumes exactly" `Quick
      crash_resume;
  ]

(* --- divergence detection -------------------------------------------------- *)

(* State leaks across executions through [flip], so the body takes a
   different number of synchronization steps on every run — the classic
   nondeterminism CHESS must call out. *)
let flip_body () =
  let flip = ref false in
  fun () ->
    flip := not !flip;
    let c = Api.Shared.make 0 in
    Api.spawn (fun () -> Api.Shared.set c 1);
    ignore (Api.Shared.get c);
    if !flip then ignore (Api.Shared.get c)

(* Only the first run to reach the main thread's end takes the extra
   step.  That run is round 0's first execution, which one domain runs
   before any other, so every later run diverges from what it recorded
   however the domains interleave their runs ([flip]'s toggle would
   depend on that). *)
let first_run_body () =
  let first = Atomic.make true in
  fun () ->
    let c = Api.Shared.make 0 in
    Api.spawn (fun () -> Api.Shared.set c 1);
    ignore (Api.Shared.get c);
    if Atomic.exchange first false then ignore (Api.Shared.get c)

let deterministic_body () =
  let m = Api.Mutex.create () in
  for _ = 1 to 2 do
    Api.spawn (fun () ->
        Api.Mutex.lock m;
        Api.Mutex.unlock m)
  done

let capped_chess ?domains ?cache body =
  Explore.run (CE.engine body)
    ~options:{ Collector.default_options with max_executions = Some 2000 }
    ?domains ?cache icb_unbounded

let assert_nondeterministic (r : Sresult.t) =
  match
    List.find_opt
      (fun (b : Sresult.bug) -> b.Sresult.key = "nondeterministic-program")
      r.Sresult.bugs
  with
  | None -> Alcotest.fail "expected a nondeterministic-program diagnostic"
  | Some b ->
    check Alcotest.bool "actionable message" true
      (String.length b.Sresult.msg > 40)

let divergence_tests =
  [
    Alcotest.test_case
      "a nondeterministic chess body is reported, not a crash" `Quick
      (fun () ->
        assert_nondeterministic (capped_chess (flip_body ())));
    Alcotest.test_case "deterministic bodies never trigger the detector"
      `Quick (fun () ->
        let r = CE.run ~strategy:icb_unbounded deterministic_body in
        check Alcotest.bool "no false positive" false
          (List.exists
             (fun (b : Sresult.bug) ->
               b.Sresult.key = "nondeterministic-program")
             r.Sresult.bugs);
        check Alcotest.bool "complete" true r.Sresult.complete);
    Alcotest.test_case "a nondeterministic chess body is reported uncached"
      `Quick (fun () ->
        assert_nondeterministic (capped_chess ~cache:false (flip_body ())));
    Alcotest.test_case "a nondeterministic chess body is reported on 2 domains"
      `Quick (fun () ->
        assert_nondeterministic (capped_chess ~domains:2 (first_run_body ())));
    Alcotest.test_case
      "a nondeterministic chess body is reported on 2 domains uncached"
      `Quick (fun () ->
        assert_nondeterministic
          (capped_chess ~domains:2 ~cache:false (first_run_body ())));
    Alcotest.test_case "deterministic bodies never trigger it on 2 domains"
      `Quick (fun () ->
        let r =
          Explore.run (CE.engine deterministic_body) ~domains:2 icb_unbounded
        in
        check (Alcotest.list Alcotest.string) "no bug" [] (bug_keys r);
        check Alcotest.bool "complete" true r.Sresult.complete);
  ]

(* --- CLI model addressing -------------------------------------------------- *)

let addressing_tests =
  [
    Alcotest.test_case "addressable names are collision-free" `Quick
      (fun () ->
        let names = List.map fst (Registry.addressable ()) in
        let sorted = List.sort String.compare names in
        let dedup = List.sort_uniq String.compare names in
        check Alcotest.int "no duplicates" (List.length dedup)
          (List.length sorted));
    Alcotest.test_case "single-bug models answer to the :bug alias" `Quick
      (fun () ->
        check Alcotest.bool "bluetooth:bug" true
          (List.mem_assoc "bluetooth:bug" (Registry.addressable ())));
    Alcotest.test_case "disambiguation suffixes colliding names" `Quick
      (fun () ->
        check
          (Alcotest.list Alcotest.string)
          "suffixed in order"
          [ "a-1"; "b"; "a-2" ]
          (Registry.disambiguate [ "a"; "b"; "a" ]);
        check
          (Alcotest.list Alcotest.string)
          "unique names untouched" [ "x"; "y" ]
          (Registry.disambiguate [ "x"; "y" ]));
  ]


(* --- decoder fuzzing ----------------------------------------------------- *)

module Proto = Icb_dist.Proto
module Http = Icb_obs.Http
module Json = Icb_obs.Json
module Event = Icb_obs.Event
module Metrics = Icb_obs.Metrics
module Telemetry = Icb_obs.Telemetry
module Bundle = Icb_repro.Bundle

(* Every decoder of bytes this process did not write answers with its
   typed error whatever the bytes: [Checkpoint.Corrupt], [Bundle.Corrupt],
   [`Closed]/[`Malformed] from [Proto.recv], [Error] from the message,
   snapshot, event and metric decoders and from [Http.read_request].  Any
   other exception fails the property.  Whole files and frames get the
   four mutations; JSON payloads are mutated under a recomputed digest,
   so the mutations reach the JSON decoders.  (A recomputed digest over
   a mutated Marshal payload is the one input the formats do not defend
   against.) *)

type mutation = Truncate of int | Flip of int | Append of string | Huge_length

(* uniform, so that an offset taken modulo an input's length can land
   anywhere in it *)
let offset = QCheck.Gen.int_bound (1 lsl 30)

let mutation =
  QCheck.make
    ~print:(function
      | Truncate n -> Printf.sprintf "truncate at %d" n
      | Flip n -> Printf.sprintf "flip bit %d" n
      | Append s -> Printf.sprintf "append %S" s
      | Huge_length -> "declare length 0x7fffffff")
    QCheck.Gen.(
      frequency
        [
          (3, map (fun n -> Truncate n) offset);
          (3, map (fun n -> Flip n) offset);
          (2, map (fun s -> Append s) (string_size ~gen:char (int_range 1 64)));
          (1, return Huge_length);
        ])

(* [m] applied to [s]; a frame's length field follows the 8-byte magic,
   the version and the digest.  Offsets wrap around [s]. *)
let mutate s m =
  let b = Bytes.of_string s in
  match m with
  | Truncate n -> String.sub s 0 (n mod String.length s)
  | Flip n ->
    let i = n mod (8 * Bytes.length b) in
    Bytes.set b (i / 8)
      (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
    Bytes.to_string b
  | Append extra -> s ^ extra
  | Huge_length ->
    if Bytes.length b >= 32 then Bytes.set_int32_be b 28 0x7fffffffl;
    Bytes.to_string b

let with_file bytes f =
  let path = Filename.temp_file "icb-fuzz" ".bin" in
  write_file path bytes;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_channel bytes f =
  with_file bytes (fun path ->
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic))

(* Real inputs: a checkpoint, its run's events and metric values, a
   bundle of its bug, and a wire report built from them. *)
let corpus =
  lazy
    (let prog =
       Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
     in
     let tel = Telemetry.create () in
     Telemetry.track_metrics tel;
     let events = ref [] in
     Telemetry.add_consumer tel (fun env -> events := env :: !events);
     let path = tmp_ckpt () in
     let r =
       Icb.run ~telemetry:tel
         ~options:{ Collector.default_options with stop_at_first_bug = true }
         ~checkpoint_out:path ~strategy:icb_unbounded prog
     in
     Telemetry.close tel;
     let ckpt_bytes = read_file path in
     let ckpt = Checkpoint.load path in
     Sys.remove path;
     let dir = Filename.temp_file "icb-fuzz" "" in
     Sys.remove dir;
     let bundle_bytes =
       match
         Icb_repro.Store.drop (Icb.engine prog) ~dir ~deadlock_is_error:true
           ~kind:"model" ~target:"peterson:check-before-set" ~strategy:"icb"
           ~seed:1L r.Sresult.bugs
       with
       | Ok (p :: _) ->
         let b = read_file p in
         Array.iter
           (fun f -> Sys.remove (Filename.concat dir f))
           (Sys.readdir dir);
         Sys.rmdir dir;
         b
       | Ok [] | Error _ -> Alcotest.fail "no bundle was written"
     in
     let v3 = Checkpoint.to_v3 ckpt in
     let report =
       {
         Proto.r_params = v3.Checkpoint.v3_params;
         r_snapshot = Collector.snapshot_to_json ckpt.Checkpoint.collector;
         r_deferred = v3.Checkpoint.v3_work @ v3.Checkpoint.v3_next;
         r_events = List.rev_map Event.to_json !events;
         r_metrics = Some (Metrics.values_to_json (Telemetry.metrics tel));
       }
     in
     let json m = Json.to_string m in
     ( ckpt_bytes,
       bundle_bytes,
       [
         json (Proto.c2s_to_json (Proto.Result { lease = 3; report }));
         json
           (Proto.s2c_to_json
              (Proto.Batch
                 {
                   Proto.b_lease = 3;
                   b_id = 0;
                   b_tag = v3.Checkpoint.v3_tag;
                   b_params = v3.Checkpoint.v3_params;
                   b_round = v3.Checkpoint.v3_round;
                   b_items = v3.Checkpoint.v3_work;
                   b_pending = 2;
                 }));
       ] ))

let wire payload = frame ~magic:Proto.magic ~version:Proto.version payload

(* What the coordinator and a worker do with a received frame, down to
   the report's snapshot, events and metric image. *)
let decode_frame ic =
  match Proto.recv ic with
  | Error (`Closed | `Malformed _) -> true
  | Ok j -> (
    ignore (Proto.s2c_of_json j);
    match Proto.c2s_of_json j with
    | Ok (Proto.Result { report; _ }) ->
      ignore (Collector.snapshot_of_json report.Proto.r_snapshot);
      List.iter (fun e -> ignore (Event.of_json e)) report.Proto.r_events;
      let tel = Telemetry.create () in
      Telemetry.track_metrics tel;
      Option.iter
        (fun m -> ignore (Telemetry.merge_deltas tel m ~bugs:[]))
        report.Proto.r_metrics;
      false
    | Ok _ -> false
    | Error _ -> true)

(* [load] says whether the input was rejected.  A declared 2 GiB payload
   must be rejected having allocated about what the file holds. *)
let file_property name ~count input load =
  QCheck.Test.make ~count ~name mutation (fun m ->
      let bytes = mutate (input ()) m in
      let before = Gc.allocated_bytes () in
      let rejected = load bytes in
      m <> Huge_length
      || (rejected && Gc.allocated_bytes () -. before < 4194304.))

let corrupt_file load bytes =
  with_file bytes (fun path ->
      match load path with
      | _ -> false
      | exception (Checkpoint.Corrupt _ | Bundle.Corrupt _) -> true)

let fuzz_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      file_property "a mutated checkpoint is Corrupt or loads" ~count:300
        (fun () ->
          let c, _, _ = Lazy.force corpus in
          c)
        (corrupt_file (fun p -> ignore (Checkpoint.load p)));
      file_property "a mutated bundle is Corrupt or loads" ~count:300
        (fun () ->
          let _, b, _ = Lazy.force corpus in
          b)
        (corrupt_file (fun p -> ignore (Bundle.load p)));
      file_property "a mutated wire frame is refused or decodes" ~count:300
        (fun () ->
          let _, _, msgs = Lazy.force corpus in
          wire (List.hd msgs))
        (fun bytes -> with_channel bytes decode_frame);
      QCheck.Test.make ~count:1000
        ~name:"a mutated JSON payload under a valid digest decodes or errs"
        QCheck.(pair bool mutation)
        (fun (first, m) ->
          let _, _, msgs = Lazy.force corpus in
          let payload = if first then List.hd msgs else List.nth msgs 1 in
          let payload =
            if m = Huge_length then payload else mutate payload m
          in
          ignore (with_channel (wire payload) decode_frame);
          true);
      QCheck.Test.make ~count:1000
        ~name:"a mutated HTTP head is read or refused" mutation
        (fun m ->
          let head = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n" in
          with_channel (mutate head m) (fun ic ->
              match Http.read_request ic with Ok _ | Error _ -> true));
    ]

let () =
  Alcotest.run "resilience"
    [
      ("deadline", deadline_tests);
      ("checkpoint", checkpoint_tests);
      ("format", format_tests);
      ("crash", crash_tests);
      ("divergence", divergence_tests);
      ("addressing", addressing_tests);
      ("fuzz", fuzz_tests);
    ]

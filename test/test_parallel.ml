(* The parallel ICB executor: equivalence with the serial search,
   determinism across runs, interrupt/resume without duplicated work, and
   the saturating statistics merge. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult
module Engine = Icb_search.Engine

let check = Alcotest.check

let tmp_ckpt () = Filename.temp_file "icb-par" ".ckpt"

(* (key, preemptions) pairs, sorted: the deduplicated bug set plus the
   preemption count each bug was exposed with — both must match between a
   serial and a parallel run (the parallel merge absorbs a bound's
   candidates in sorted order, and within the first bound exposing a bug
   every candidate of that kind carries the same, minimal count). *)
let bug_set (r : Sresult.t) =
  List.sort compare
    (List.map
       (fun (b : Sresult.bug) -> (b.Sresult.key, b.Sresult.preemptions))
       r.Sresult.bugs)

let bexec (r : Sresult.t) = Array.to_list r.Sresult.bound_executions

let serial ?(options = Collector.default_options) ~max_bound prog =
  Icb.run ~options
    ~strategy:(Explore.Icb { max_bound = Some max_bound; cache = false })
    prog

let assert_equivalent what (s : Sresult.t) (p : Sresult.t) =
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    (what ^ ": bug set") (bug_set s) (bug_set p);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    (what ^ ": executions per bound") (bexec s) (bexec p);
  check Alcotest.int (what ^ ": executions") s.Sresult.executions
    p.Sresult.executions;
  check Alcotest.int (what ^ ": states") s.Sresult.distinct_states
    p.Sresult.distinct_states;
  check Alcotest.int (what ^ ": steps") s.Sresult.total_steps
    p.Sresult.total_steps;
  check Alcotest.bool (what ^ ": complete") s.Sresult.complete
    p.Sresult.complete

let equivalence_case name ~max_bound prog =
  Alcotest.test_case name `Quick (fun () ->
      let s = serial ~max_bound prog in
      let p = Icb.run_parallel ~max_bound ~domains:4 prog in
      assert_equivalent "4 domains vs serial" s p;
      (* a 1-domain pool must agree too: same merge code, no concurrency *)
      let one = Icb.run_parallel ~max_bound ~domains:1 prog in
      assert_equivalent "1 domain vs serial" s one)

let equivalence_tests =
  [
    equivalence_case "peterson (check-before-set) matches serially"
      ~max_bound:3
      (Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set);
    equivalence_case "work-stealing queue (unlocked steal) matches serially"
      ~max_bound:2
      (Icb_models.Workstealing.program
         Icb_models.Workstealing.Bug_unlocked_steal);
    equivalence_case "bluetooth driver (buggy) matches serially" ~max_bound:3
      (Icb_models.Bluetooth.program ~bug:true);
    equivalence_case
      "work-stealing queue (pop reads head first) matches serially"
      ~max_bound:2
      (Icb_models.Workstealing.program
         Icb_models.Workstealing.Bug_pop_reads_head_first);
    equivalence_case
      "bound 3: work-stealing queue (pop reads head first) matches serially"
      ~max_bound:3
      (Icb_models.Workstealing.program
         Icb_models.Workstealing.Bug_pop_reads_head_first);
    Alcotest.test_case "first bug carries the same preemption bound" `Quick
      (fun () ->
        let prog =
          Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
        in
        match (Icb.check prog, Icb.check ~domains:4 prog) with
        | Some s, Some p ->
          check Alcotest.string "same bug" s.Sresult.key p.Sresult.key;
          check Alcotest.int "same minimal preemption count"
            s.Sresult.preemptions p.Sresult.preemptions
        | _ -> Alcotest.fail "both checkers must find the bug");
    Alcotest.test_case "--jobs is refused for non-shardable strategies"
      `Quick (fun () ->
        List.iter
          (fun strategy ->
            match
              Icb.run ~domains:2 ~strategy
                (Icb_models.Bluetooth.program ~bug:false)
            with
            | exception Invalid_argument msg ->
              check Alcotest.bool "non-empty diagnostic" true
                (String.length msg > 0)
            | _ -> Alcotest.fail "expected Invalid_argument")
          [ Explore.Sleep_dfs; Explore.Most_enabled { cache = true } ]);
  ]

(* --- determinism across identical parallel runs --------------------------- *)

(* Everything observable, including each bug's schedule and execution
   stamp, rendered to one string; two runs of the same parallel search
   must produce byte-identical renderings regardless of worker timing. *)
let render (r : Sresult.t) =
  let bug (b : Sresult.bug) =
    Printf.sprintf "%s@%d p%d cs%d d%d <%s>" b.Sresult.key b.Sresult.execution
      b.Sresult.preemptions b.Sresult.context_switches b.Sresult.depth
      (String.concat "," (List.map string_of_int b.Sresult.schedule))
  in
  Printf.sprintf "%s|execs=%d|states=%d|steps=%d|complete=%b|bexec=%s|bugs=%s"
    r.Sresult.strategy r.Sresult.executions r.Sresult.distinct_states
    r.Sresult.total_steps r.Sresult.complete
    (String.concat ";"
       (List.map
          (fun (b, e) -> Printf.sprintf "%d:%d" b e)
          (Array.to_list r.Sresult.bound_executions)))
    (String.concat ";" (List.map bug (List.sort compare r.Sresult.bugs)))

let determinism_tests =
  [
    Alcotest.test_case "two 4-domain runs are byte-identical" `Quick
      (fun () ->
        let prog =
          Icb_models.Workstealing.program
            Icb_models.Workstealing.Bug_pop_reads_head_first
        in
        let run () =
          render (Icb.run_parallel ~max_bound:2 ~domains:4 prog)
        in
        check Alcotest.string "identical rendering" (run ()) (run ()));
  ]

(* --- interrupt mid-search, resume without re-exploring -------------------- *)

(* The machine engine wrapped so that every completed execution's schedule
   lands on a shared tape.  The tape carries its own lock: the pool builds
   one engine per worker, and all of them append to the same tape, so it
   is the exact multiset of executions the whole pool explored. *)
type tape = { lock : Mutex.t; mutable runs : int list list }

let new_tape () = { lock = Mutex.create (); runs = [] }

let recording_engine prog tape :
    (module Engine.S
       with type state = Icb_search.Mach_engine.state * int list) =
  let module Base = (val Icb.engine prog) in
  (module struct
    type state = Base.state * int list (* reversed schedule *)

    let initial () = (Base.initial (), [])
    let enabled (s, _) = Base.enabled s
    let status (s, _) = Base.status s
    let signature (s, _) = Base.signature s
    let depth (s, _) = Base.depth s
    let blocking_ops (s, _) = Base.blocking_ops s
    let preemptions (s, _) = Base.preemptions s
    let schedule (s, _) = Base.schedule s
    let thread_count (s, _) = Base.thread_count s
    let step_footprint (s, _) t = Base.step_footprint s t

    (* the pair is as persistent as the underlying machine state, so the
       wrapper keeps the snapshot capability *)
    type snap = state

    let snapshot = Some (fun (s : state) -> s)
    let restore (s : snap) = s

    let step (s, sched) t =
      let s' = Base.step s t in
      let sched' = t :: sched in
      (if Engine.is_terminal (Base.status s') then
         Mutex.protect tape.lock (fun () ->
             tape.runs <- List.rev sched' :: tape.runs));
      (s', sched')
  end)

let sorted_tape tape = List.sort compare tape.runs

let assert_no_duplicates what schedules =
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then true else dup rest
    | _ -> false
  in
  check Alcotest.bool (what ^ ": no schedule explored twice") false
    (dup schedules)

let stress_tests =
  [
    Alcotest.test_case
      "a killed parallel run resumes (serially and in parallel) with no \
       duplicated work"
      `Quick (fun () ->
        let prog =
          Icb_models.Workstealing.program
            Icb_models.Workstealing.Bug_pop_reads_head_first
        in
        let max_bound = 3 in
        (* uninterrupted reference: the full tape and final result *)
        let full_tape = new_tape () in
        let full =
          Explore.run
            (recording_engine prog full_tape)
            (Explore.Icb { max_bound = Some max_bound; cache = false })
        in
        assert_no_duplicates "reference run" (sorted_tape full_tape);
        (* kill a 4-domain run mid-search: a short wall-clock deadline,
           backed by an execution limit so the interruption survives
           arbitrarily fast hardware *)
        let path = tmp_ckpt () in
        let t1 = new_tape () in
        let interrupted =
          Icb_search.Driver.run
            (fun _ -> recording_engine prog t1)
            ~options:
              {
                Collector.default_options with
                deadline = Some (Collector.deadline_in 0.15);
                max_executions = Some (full.Sresult.executions / 4);
              }
            ~checkpoint_out:path ~checkpoint_every:max_int ~domains:4
            (Icb_search.Strategies.icb
               (recording_engine prog t1)
               ~max_bound:(Some max_bound) ~cache:false)
        in
        check Alcotest.bool "was interrupted" false
          interrupted.Sresult.complete;
        check Alcotest.bool "a stop reason is recorded" true
          (interrupted.Sresult.stop_reason <> None);
        (* resume the checkpoint to the end, serially... *)
        let t_serial = new_tape () in
        let resumed_serial =
          Explore.resume
            (recording_engine prog t_serial)
            (Checkpoint.load path)
        in
        (* ...and in parallel, from the same checkpoint *)
        let t_par = new_tape () in
        let resumed_par =
          Explore.resume
            (recording_engine prog t_par)
            ~domains:4 (Checkpoint.load path)
        in
        Sys.remove path;
        (* no execution is explored twice across the kill... *)
        let union_serial = List.sort compare (t1.runs @ t_serial.runs) in
        let union_par = List.sort compare (t1.runs @ t_par.runs) in
        assert_no_duplicates "interrupted + serial resume" union_serial;
        assert_no_duplicates "interrupted + parallel resume" union_par;
        (* ...and nothing is missed either: both unions are exactly the
           uninterrupted run's execution multiset *)
        let schedules = Alcotest.list (Alcotest.list Alcotest.int) in
        check schedules "serial resume covers the full space"
          (sorted_tape full_tape) union_serial;
        check schedules "parallel resume covers the full space"
          (sorted_tape full_tape) union_par;
        assert_equivalent "serial resume result" full resumed_serial;
        assert_equivalent "parallel resume result" full resumed_par);
  ]

(* --- the statistics merge saturates --------------------------------------- *)

let saturation_tests =
  [
    Alcotest.test_case "merge_stats pins counters at max_int" `Quick
      (fun () ->
        let snap_with ~executions ~total_steps =
          let c = Collector.create Collector.default_options in
          Collector.touch c 1L;
          Collector.forge_counts (Collector.snapshot c) ~executions
            ~total_steps
        in
        (* two near-max_int workers: a wrapping sum would go negative *)
        let near =
          snap_with ~executions:(max_int - 5) ~total_steps:(max_int - 3)
        in
        let master = Collector.create Collector.default_options in
        Collector.merge_stats master near;
        Collector.merge_stats master near;
        check Alcotest.int "executions saturate" max_int
          (Collector.executions master);
        check Alcotest.int "steps saturate" max_int
          (Collector.total_steps master);
        (* ordinary counts still add exactly *)
        let small = snap_with ~executions:10 ~total_steps:20 in
        let m2 = Collector.create Collector.default_options in
        Collector.merge_stats m2 small;
        Collector.merge_stats m2 small;
        check Alcotest.int "small sums are exact" 20
          (Collector.executions m2);
        check Alcotest.int "small step sums are exact" 40
          (Collector.total_steps m2));
  ]

let () =
  Alcotest.run "parallel"
    [
      ("equivalence", equivalence_tests);
      ("determinism", determinism_tests);
      ("stress", stress_tests);
      ("saturation", saturation_tests);
    ]

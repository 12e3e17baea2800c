(* The parallel ICB executor: the first bug's bound, the refused
   strategies, determinism across runs, and the saturating statistics
   merge.  Equivalence with the serial search, and interrupt/resume
   without duplicated work, are test_conformance's cells. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Sresult = Icb_search.Sresult

let check = Alcotest.check

let equivalence_tests =
  [
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
      ("saturation", saturation_tests);
    ]

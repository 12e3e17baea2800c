(* The parallel ICB executor: the first bug's bound, the refused
   strategies and the saturating statistics merge.  Equivalence with the
   serial search (and so determinism across runs), and interrupt/resume
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
      ("saturation", saturation_tests);
    ]

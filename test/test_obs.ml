(* The telemetry subsystem: JSON and event round-trips, the metrics
   registry, trace summaries matching the collector's own curves,
   serial-vs-parallel telemetry equivalence, and — the load-bearing
   contract — that attaching sinks changes nothing about what the search
   explores, finds or checkpoints. *)

module Obs = Icb_obs
module Json = Icb_obs.Json
module Event = Icb_obs.Event
module Metrics = Icb_obs.Metrics
module Telemetry = Icb_obs.Telemetry
module Trace = Icb_obs.Trace
module Progress = Icb_obs.Progress
module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult

let check = Alcotest.check

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let tmp ext = Filename.temp_file "icb-obs" ext

let peterson_bug =
  Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set

let wsq_bug =
  Icb_models.Workstealing.program Icb_models.Workstealing.Bug_unlocked_steal

(* --- Json ------------------------------------------------------------------ *)

let json_tests =
  [
    Alcotest.test_case "print/parse round-trip" `Quick (fun () ->
        let samples =
          [
            Json.Null;
            Json.Bool true;
            Json.Int (-42);
            Json.Float 1.5;
            Json.String "a \"quoted\"\n\ttab \\ slash";
            Json.List [ Json.Int 1; Json.Null; Json.String "x" ];
            Json.Obj
              [
                ("a", Json.Int 1);
                ("nested", Json.Obj [ ("b", Json.List []) ]);
                ("s", Json.String "");
              ];
          ]
        in
        List.iter
          (fun j ->
            let s = Json.to_string j in
            check Alcotest.string "stable through reparse" s
              (Json.to_string (Json.parse s)))
          samples);
    Alcotest.test_case "malformed input raises Parse_error" `Quick (fun () ->
        List.iter
          (fun s ->
            match Json.parse s with
            | exception Json.Parse_error _ -> ()
            | _ -> Alcotest.failf "parse %S should have failed" s)
          [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2" ]);
    Alcotest.test_case "malformed \\u escapes raise Parse_error" `Quick
      (fun () ->
        List.iter
          (fun s ->
            match Json.parse s with
            | exception Json.Parse_error _ -> ()
            | _ -> Alcotest.failf "parse %S should have failed" s)
          (* int_of_string-style leniency (underscores, signs) is not JSON *)
          [ {|"\u00_1"|}; {|"\u+123"|}; {|"\u12g4"|}; {|"\u12|} ]);
    Alcotest.test_case "surrogate pairs decode to one UTF-8 scalar" `Quick
      (fun () ->
        let str s =
          match Json.parse s with
          | Json.String v -> v
          | _ -> Alcotest.failf "parse %S: expected a string" s
        in
        check Alcotest.string "U+1F600" "\xF0\x9F\x98\x80"
          (str "\"\\ud83d\\ude00\"");
        check Alcotest.string "U+10000" "\xF0\x90\x80\x80"
          (str "\"\\ud800\\udc00\"");
        (* unpaired surrogates decode best-effort rather than failing *)
        check Alcotest.string "lone high surrogate" "\xED\xA0\xBD!"
          (str {|"\ud83d!"|});
        check Alcotest.string "high + non-surrogate escape" "\xED\xA0\xBDA"
          (str {|"\ud83dA"|}));
    (let byte =
       QCheck.Gen.(
         frequency
           [
             (2, map Char.chr (int_range 0x00 0x1F));
             (4, printable);
             (3, map Char.chr (int_range 0x80 0xFF));
             (1, oneofl [ '"'; '\\'; '/'; '\x7f'; '\xc3'; '\xf0'; '\x9f' ]);
           ])
     in
     let arb =
       QCheck.make
         ~print:(fun s -> Printf.sprintf "%S" s)
         QCheck.Gen.(string_size ~gen:byte (int_bound 48))
     in
     QCheck_alcotest.to_alcotest
       (QCheck.Test.make ~count:2000
          ~name:"arbitrary byte strings survive print/parse" arb (fun s ->
            Json.parse (Json.to_string (Json.String s)) = Json.String s)));
    Alcotest.test_case "accessors" `Quick (fun () ->
        let j = Json.parse {|{"i":3,"f":2.5,"s":"x","b":false,"n":null}|} in
        check (Alcotest.option Alcotest.int) "int" (Some 3)
          (Option.bind (Json.find j "i") Json.to_int);
        check
          (Alcotest.option (Alcotest.float 0.0))
          "float" (Some 2.5)
          (Option.bind (Json.find j "f") Json.to_float);
        check (Alcotest.option Alcotest.string) "str" (Some "x")
          (Option.bind (Json.find j "s") Json.to_str);
        check (Alcotest.option Alcotest.bool) "bool" (Some false)
          (Option.bind (Json.find j "b") Json.to_bool);
        check (Alcotest.option Alcotest.int) "missing" None
          (Option.bind (Json.find j "zz") Json.to_int));
  ]

(* --- events ---------------------------------------------------------------- *)

let all_events : Event.t list =
  [
    Event.Run_started { strategy = "icb:3"; domains = 4; resumed = true };
    Event.Bound_started { bound = 2; items = 37 };
    Event.Item_started { prefix = 5; payload = -1 };
    Event.Item_finished { seconds = 0.125; executions = 3; steps = 41 };
    Event.Execution_done
      {
        bound = Some 2;
        steps = 17;
        preemptions = 2;
        status = "terminated";
        executions = 123;
      };
    Event.Execution_done
      {
        bound = None;
        steps = 9;
        preemptions = 0;
        status = "deadlock";
        executions = 1;
      };
    Event.Bug_found { key = "assert:x"; preemptions = 1; execution = 7 };
    Event.Checkpoint_written { path = "/tmp/c.ckpt"; executions = 500 };
    Event.Worker_stats { stats_for = 3; executions = 11; steps = 200; bugs = 1 };
    Event.Run_finished
      {
        executions = 1678;
        states = 1269;
        bugs = 0;
        complete = false;
        stop_reason = Some "execution limit reached";
      };
    Event.Run_finished
      {
        executions = 1;
        states = 1;
        bugs = 1;
        complete = true;
        stop_reason = None;
      };
    Event.Minimize_started { key = "assert:x"; length = 212; preemptions = 9 };
    Event.Minimize_improved
      { phase = "ddmin"; candidates = 14; length = 40; preemptions = 2 };
    Event.Minimize_finished
      {
        key = "assert:x";
        candidates = 192;
        length = 23;
        preemptions = 1;
        proven = true;
      };
  ]

let event_tests =
  [
    Alcotest.test_case "every event JSON round-trips" `Quick (fun () ->
        List.iteri
          (fun i ev ->
            let env = { Event.ts = float_of_int i *. 0.5; worker = i; ev } in
            let line = Json.to_string (Event.to_json env) in
            match Event.of_json (Json.parse line) with
            | Ok env' ->
              if env <> env' then
                Alcotest.failf "event %d changed through JSON: %s" i line
            | Error msg -> Alcotest.failf "event %d rejected: %s" i msg)
          all_events);
    Alcotest.test_case "unknown event kind is rejected" `Quick (fun () ->
        match
          Event.of_json (Json.parse {|{"ts":0.0,"worker":0,"ev":"nope"}|})
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected an error");
  ]

(* --- metrics --------------------------------------------------------------- *)

let metrics_tests =
  [
    Alcotest.test_case "counters, gauges and rendering" `Quick (fun () ->
        let m = Metrics.create () in
        let c = Metrics.counter m ~help:"execs" "t_executions_total" in
        let g = Metrics.gauge m ~help:"bound" "t_current_bound" in
        Metrics.inc c 3.0;
        Metrics.inc c 2.0;
        Metrics.set g 7.0;
        check (Alcotest.option (Alcotest.float 0.0)) "counter" (Some 5.0)
          (Metrics.find m "t_executions_total");
        check (Alcotest.option (Alcotest.float 0.0)) "gauge" (Some 7.0)
          (Metrics.find m "t_current_bound");
        let text = Metrics.to_prometheus m in
        List.iter
          (fun needle ->
            if
              not
                (contains ~needle text)
            then Alcotest.failf "missing %S in:\n%s" needle text)
          [
            "# TYPE t_executions_total counter";
            "t_executions_total 5";
            "# TYPE t_current_bound gauge";
            "t_current_bound 7";
          ];
        (* the JSON snapshot parses back *)
        ignore (Json.parse (Json.to_string (Metrics.to_json m))));
    Alcotest.test_case "histogram buckets are cumulative" `Quick (fun () ->
        let m = Metrics.create () in
        let h =
          Metrics.histogram m ~help:"steps" ~buckets:[ 1.0; 10.0 ] "t_steps"
        in
        List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0 ];
        check Alcotest.int "count" 3 (Metrics.histogram_count h);
        check (Alcotest.float 1e-9) "sum" 55.5 (Metrics.histogram_sum h);
        let text = Metrics.to_prometheus m in
        List.iter
          (fun needle ->
            if
              not
                (contains ~needle text)
            then Alcotest.failf "missing %S in:\n%s" needle text)
          [
            {|t_steps_bucket{le="1"} 1|};
            {|t_steps_bucket{le="10"} 2|};
            {|t_steps_bucket{le="+Inf"} 3|};
            "t_steps_count 3";
          ]);
    Alcotest.test_case "duplicate names are rejected" `Quick (fun () ->
        let m = Metrics.create () in
        ignore (Metrics.counter m ~help:"" "dup");
        match Metrics.counter m ~help:"" "dup" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "value images add into another registry" `Quick
      (fun () ->
        let registry () =
          let m = Metrics.create () in
          let c = Metrics.counter m ~help:"" "t_total" in
          let g = Metrics.gauge m ~help:"" "t_level" in
          let h = Metrics.histogram m ~help:"" ~buckets:[ 1.0; 10.0 ] "t_h" in
          (m, c, g, h)
        in
        let src, c, g, h = registry () in
        Metrics.inc c 4.0;
        Metrics.set g 9.0;
        List.iter (Metrics.observe h) [ 0.5; 50.0 ];
        let image = Json.parse (Json.to_string (Metrics.values_to_json src)) in
        let dst, _, _, h' = registry () in
        let merge () =
          match Metrics.merge_values dst image with
          | Ok () -> ()
          | Error e -> Alcotest.fail e
        in
        merge ();
        merge ();
        check (Alcotest.option (Alcotest.float 0.0)) "counters add" (Some 8.0)
          (Metrics.find dst "t_total");
        check (Alcotest.option (Alcotest.float 0.0)) "gauges stay home"
          (Some 0.0) (Metrics.find dst "t_level");
        check Alcotest.int "histogram totals add" 4
          (Metrics.histogram_count h');
        check Alcotest.bool "buckets add" true
          (contains ~needle:{|t_h_bucket{le="1"} 2|}
             (Metrics.to_prometheus dst));
        (* an image naming an instrument this registry lacks applies
           nothing at all *)
        let other = Metrics.create () in
        ignore (Metrics.counter other ~help:"" "t_total");
        match Metrics.merge_values other image with
        | Ok () -> Alcotest.fail "expected an error for the unknown histogram"
        | Error _ ->
          check (Alcotest.option (Alcotest.float 0.0)) "untouched" (Some 0.0)
            (Metrics.find other "t_total"));
  ]

(* --- trace round-trip against the collector's own numbers ------------------ *)

let run_traced ?(domains = 1) ?max_bound ?options prog =
  let path = tmp ".jsonl" in
  let tel = Telemetry.create () in
  Telemetry.add_trace tel path;
  let r =
    if domains = 1 then
      Icb.run ?options ~telemetry:tel
        ~strategy:(Explore.Icb { max_bound; cache = false })
        prog
    else Icb.run_parallel ?options ?max_bound ~telemetry:tel ~domains prog
  in
  Telemetry.close tel;
  let events = Trace.read path in
  Sys.remove path;
  (r, events)

let trace_tests =
  [
    Alcotest.test_case "per-bound counts equal Sresult.bound_executions"
      `Quick (fun () ->
        let r, events = run_traced ~max_bound:3 peterson_bug in
        let s = Trace.summarize events in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "cumulative curve"
          (Array.to_list r.Sresult.bound_executions)
          (Trace.bound_executions s);
        check Alcotest.int "executions" r.Sresult.executions s.Trace.executions;
        check (Alcotest.option Alcotest.int) "states"
          (Some r.Sresult.distinct_states) s.Trace.states;
        check Alcotest.int "bugs" (List.length r.Sresult.bugs)
          (List.length s.Trace.bugs);
        check Alcotest.bool "finished" true s.Trace.finished);
    Alcotest.test_case "a 4-domain trace replays the serial curve" `Quick
      (fun () ->
        let r, _ = run_traced ~max_bound:2 wsq_bug in
        let p, events = run_traced ~domains:4 ~max_bound:2 wsq_bug in
        let s = Trace.summarize events in
        check Alcotest.int "same executions" r.Sresult.executions
          p.Sresult.executions;
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "parallel trace matches the serial collector"
          (Array.to_list r.Sresult.bound_executions)
          (Trace.bound_executions s);
        check Alcotest.bool "several workers seen" true (s.Trace.workers >= 2);
        (* distinct bug keys in the trace = deduplicated result bugs *)
        check
          (Alcotest.list Alcotest.string)
          "bug keys"
          (List.sort compare
             (List.map (fun (b : Sresult.bug) -> b.Sresult.key) p.Sresult.bugs))
          (List.sort compare
             (List.map (fun (b : Trace.bug) -> b.Trace.bg_key) s.Trace.bugs)));
    Alcotest.test_case "serial and 2-domain metrics agree" `Quick (fun () ->
        let totals domains prog =
          let tel = Telemetry.create () in
          Telemetry.track_metrics tel;
          let r =
            if domains = 1 then
              Icb.run ~telemetry:tel
                ~strategy:(Explore.Icb { max_bound = Some 2; cache = false })
                prog
            else Icb.run_parallel ~max_bound:2 ~telemetry:tel ~domains prog
          in
          Telemetry.close tel;
          let m = Telemetry.metrics tel in
          let get k =
            match Metrics.find m k with
            | Some v -> int_of_float v
            | None -> Alcotest.failf "metric %s missing" k
          in
          ( r,
            ( get "icb_executions_total",
              get "icb_bugs_total",
              get "icb_steps_total" ) )
        in
        List.iter
          (fun prog ->
            let r1, m1 = totals 1 prog in
            let r2, m2 = totals 2 prog in
            check
              (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
              "merged counters" m1 m2;
            let exec, bugs, steps = m1 in
            check Alcotest.int "counter = result executions"
              r1.Sresult.executions exec;
            check Alcotest.int "counter = result bugs"
              (List.length r1.Sresult.bugs) bugs;
            (* icb_steps_total sums per-item deltas, so the strategy's
               root seeding (one touch outside any item) is not in it *)
            check Alcotest.bool "steps counter within one root of the result"
              true
              (steps <= r1.Sresult.total_steps
              && r1.Sresult.total_steps - steps <= 1);
            check Alcotest.int "parallel result agrees" r1.Sresult.executions
              r2.Sresult.executions)
          [ peterson_bug; wsq_bug ]);
  ]

(* --- neutrality: sinks change nothing -------------------------------------- *)

(* Everything observable about a result, rendered to one string. *)
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
    (String.concat ";" (List.map bug r.Sresult.bugs))

let neutral_strategies =
  [
    Explore.Icb { max_bound = Some 3; cache = false };
    Explore.Dfs { cache = true };
    Explore.Random_walk { seed = 2007L };
    Explore.Pct { change_points = 2; seed = 1L };
  ]

(* The timing params are the only nondeterministic bytes in a checkpoint;
   strip exactly those two keys before comparing files
   (checkpoint.mli documents this contract). *)
let normalized_checkpoint path =
  let c = Checkpoint.load path in
  let f = Checkpoint.to_v3 c in
  let v3_params =
    List.filter
      (fun (k, _) ->
        k <> Checkpoint.elapsed_key && k <> Checkpoint.bound_times_key)
      f.Checkpoint.v3_params
  in
  Marshal.to_string
    { c with Checkpoint.frontier = Checkpoint.V3 { f with v3_params } }
    []

let neutrality_tests =
  [
    Alcotest.test_case "tracing leaves every strategy's result unchanged"
      `Quick (fun () ->
        let options =
          {
            Collector.default_options with
            max_executions = Some 400;
            deadlock_is_error = true;
          }
        in
        List.iter
          (fun strategy ->
            let bare = Icb.run ~options ~strategy peterson_bug in
            let path = tmp ".jsonl" in
            let tel = Telemetry.create () in
            Telemetry.add_trace tel path;
            Telemetry.track_metrics tel;
            let traced =
              Icb.run ~options ~telemetry:tel ~strategy peterson_bug
            in
            Telemetry.close tel;
            Sys.remove path;
            check Alcotest.string
              (Explore.strategy_name strategy ^ " unchanged") (render bare)
              (render traced))
          neutral_strategies);
    Alcotest.test_case "tracing leaves checkpoint bytes unchanged" `Quick
      (fun () ->
        let run telemetry path =
          let options =
            { Collector.default_options with max_executions = Some 150 }
          in
          ignore
            (Icb.run ~options ?telemetry ~checkpoint_out:path
               ~checkpoint_every:50
               ~strategy:(Explore.Icb { max_bound = Some 3; cache = false })
               wsq_bug)
        in
        let p_bare = tmp ".ckpt" and p_traced = tmp ".ckpt" in
        run None p_bare;
        let trace = tmp ".jsonl" in
        let tel = Telemetry.create () in
        Telemetry.add_trace tel trace;
        run (Some tel) p_traced;
        Telemetry.close tel;
        let same =
          normalized_checkpoint p_bare = normalized_checkpoint p_traced
        in
        Sys.remove p_bare;
        Sys.remove p_traced;
        Sys.remove trace;
        check Alcotest.bool "identical after normalizing timing params" true
          same);
  ]

(* --- cumulative wall-clock timing in checkpoints --------------------------- *)

let timing_tests =
  [
    Alcotest.test_case "checkpoints carry cumulative elapsed time" `Quick
      (fun () ->
        let path = tmp ".ckpt" in
        let options =
          { Collector.default_options with max_executions = Some 100 }
        in
        ignore
          (Icb.run ~options ~checkpoint_out:path ~checkpoint_every:10_000
             ~strategy:(Explore.Icb { max_bound = Some 3; cache = false })
             wsq_bug);
        let c1 = Checkpoint.load path in
        let e1 =
          match Checkpoint.elapsed c1 with
          | Some e -> e
          | None -> Alcotest.fail "no elapsed_s param in the checkpoint"
        in
        check Alcotest.bool "elapsed is sane" true (e1 >= 0.0 && e1 < 60.0);
        check Alcotest.bool "describe mentions the time" true
          (contains ~needle:"explored" (Checkpoint.describe c1));
        (* resuming accumulates: the second leg's stamp includes the first *)
        let options =
          { Collector.default_options with max_executions = Some 200 }
        in
        ignore
          (Icb.resume ~options ~checkpoint_out:path ~checkpoint_every:10_000
             wsq_bug c1);
        let c2 = Checkpoint.load path in
        (match Checkpoint.elapsed c2 with
        | Some e2 ->
          check Alcotest.bool "cumulative across resume" true (e2 >= e1)
        | None -> Alcotest.fail "resumed checkpoint lost elapsed_s");
        (* per-bound times decode and stay non-negative *)
        List.iter
          (fun (b, s) ->
            check Alcotest.bool
              (Printf.sprintf "bound %d time sane" b)
              true
              (s >= 0.0 && s < 60.0))
          (Checkpoint.bound_times c2);
        Sys.remove path);
    Alcotest.test_case "bound-times encoding round-trips" `Quick (fun () ->
        let bt = [ (0, 0.001); (1, 1.25); (3, 12.125) ] in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
          "decode . encode = id" bt
          (Checkpoint.decode_bound_times (Checkpoint.encode_bound_times bt));
        check
          (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 0.0)))
          "empty" []
          (Checkpoint.decode_bound_times ""));
  ]

(* --- the progress line ------------------------------------------------------ *)

let progress_tests =
  [
    Alcotest.test_case "line renders every field" `Quick (fun () ->
        let s =
          {
            Progress.executions = 1234;
            states = 89;
            bugs = 1;
            elapsed = 12.3;
            bound = Some 2;
            frontier = Some 37;
            eta = Some 34.0;
          }
        in
        let line = Progress.line s in
        List.iter
          (fun needle ->
            if
              not
                (contains ~needle line)
            then Alcotest.failf "missing %S in %S" needle line)
          [ "bound 2"; "37 items"; "1234 execs"; "1 bug"; "left" ]);
    Alcotest.test_case "finish prints even inside one interval" `Quick
      (fun () ->
        let buf = Buffer.create 64 in
        let ppf = Format.formatter_of_buffer buf in
        let p = Progress.create ~ppf ~interval:3600.0 () in
        let s =
          {
            Progress.executions = 10;
            states = 5;
            bugs = 0;
            elapsed = 0.01;
            bound = None;
            frontier = None;
            eta = None;
          }
        in
        (* throttled: the very first report prints, an immediate second
           one does not *)
        Progress.report p s;
        Progress.report p { s with Progress.executions = 11 };
        Progress.finish p { s with Progress.executions = 12 };
        Format.pp_print_flush ppf ();
        let out = Buffer.contents buf in
        let count_lines =
          List.length
            (List.filter (fun l -> l <> "") (String.split_on_char '\n' out))
        in
        check Alcotest.int "one report + one final line" 2 count_lines;
        check Alcotest.bool "final line marked" true
          (contains ~needle:"done:" out));
  ]

let () =
  Alcotest.run "obs"
    [
      ("json", json_tests);
      ("events", event_tests);
      ("metrics", metrics_tests);
      ("trace", trace_tests);
      ("neutrality", neutrality_tests);
      ("timing", timing_tests);
      ("progress", progress_tests);
    ]

(* The effects-based stateless checker over real OCaml code. *)

module Api = Icb_chess.Api
module CE = Icb_chess.Chess_engine
module Explore = Icb_search.Explore
module Sresult = Icb_search.Sresult

let check = Alcotest.check

let bug_preemptions name test expected =
  Alcotest.test_case name `Quick (fun () ->
      match CE.check ~max_bound:(expected + 1) test with
      | Some b ->
        check Alcotest.int "preemption bound" expected b.Sresult.preemptions
      | None -> Alcotest.fail "expected a bug")

let clean name ?(max_bound = 3) test =
  Alcotest.test_case name `Quick (fun () ->
      match CE.check ~max_bound test with
      | Some b -> Alcotest.failf "unexpected bug: %s" b.Sresult.msg
      | None -> ())

(* --- primitive semantics -------------------------------------------------- *)

let primitive_tests =
  [
    clean "mutex provides mutual exclusion" (fun () ->
        let m = Api.Mutex.create () in
        let d = Api.Semaphore.create 0 in
        let inside = Api.Data.make 0 in
        for _ = 1 to 2 do
          Api.spawn (fun () ->
              Api.Mutex.with_lock m (fun () ->
                  let v = Api.Data.get inside in
                  if v <> 0 then failwith "two threads inside the lock";
                  Api.Data.set inside 1;
                  Api.Data.set inside 0);
              Api.Semaphore.release d)
        done;
        Api.Semaphore.acquire d;
        Api.Semaphore.acquire d);
    bug_preemptions "unlock by a non-owner is reported" (fun () ->
        let m = Api.Mutex.create () in
        Api.Mutex.unlock m)
      0;
    bug_preemptions "auto-reset event loses the second waiter" (fun () ->
        let ev = Api.Event.create () in
        let d = Api.Semaphore.create 0 in
        for _ = 1 to 2 do
          Api.spawn (fun () ->
              Api.Event.wait ev;
              Api.Semaphore.release d)
        done;
        Api.Event.set ev;
        Api.Semaphore.acquire d;
        Api.Semaphore.acquire d)
      0;
    clean "manual-reset event wakes both waiters" (fun () ->
        let ev = Api.Event.create ~manual:true () in
        let d = Api.Semaphore.create 0 in
        for _ = 1 to 2 do
          Api.spawn (fun () ->
              Api.Event.wait ev;
              Api.Semaphore.release d)
        done;
        Api.Event.set ev;
        Api.Semaphore.acquire d;
        Api.Semaphore.acquire d);
    clean "initially-signaled event passes immediately" (fun () ->
        let ev = Api.Event.create ~signaled:true () in
        Api.Event.wait ev);
    bug_preemptions "reset clears a manual event" (fun () ->
        let ev = Api.Event.create ~manual:true ~signaled:true () in
        Api.Event.reset ev;
        Api.Event.wait ev)
      0;
    clean "semaphore admits its count" (fun () ->
        let s = Api.Semaphore.create 2 in
        Api.Semaphore.acquire s;
        Api.Semaphore.acquire s;
        Api.Semaphore.release s;
        Api.Semaphore.acquire s);
    clean "cas and fetch_add" (fun () ->
        let c = Api.Shared.make 5 in
        if not (Api.Shared.cas c ~expect:5 ~update:7) then failwith "cas 1";
        if Api.Shared.cas c ~expect:5 ~update:9 then failwith "cas 2";
        if Api.Shared.fetch_add c 3 <> 7 then failwith "fetch_add old";
        if Api.Shared.get c <> 10 then failwith "fetch_add new");
    Alcotest.test_case "primitives outside the runtime are rejected" `Quick
      (fun () ->
        match Api.Mutex.create () with
        | exception Api.Chess_misuse _ -> ()
        | _ -> Alcotest.fail "expected Chess_misuse");
  ]

(* --- bug finding ----------------------------------------------------------- *)

let finding_tests =
  [
    bug_preemptions "unsynchronized data cells race at bound 0" (fun () ->
        let x = Api.Data.make 0 in
        let d = Api.Semaphore.create 0 in
        for _ = 1 to 2 do
          Api.spawn (fun () ->
              Api.Data.set x (1 + Api.Data.get x);
              Api.Semaphore.release d)
        done;
        Api.Semaphore.acquire d;
        Api.Semaphore.acquire d)
      0;
    bug_preemptions "volatile lost update needs one preemption" (fun () ->
        let x = Api.Shared.make 0 in
        let d = Api.Semaphore.create 0 in
        for _ = 1 to 2 do
          Api.spawn (fun () ->
              let v = Api.Shared.get x in
              Api.Shared.set x (v + 1);
              Api.Semaphore.release d)
        done;
        Api.Semaphore.acquire d;
        Api.Semaphore.acquire d;
        if Api.Shared.get x <> 2 then failwith "lost update")
      1;
    bug_preemptions "bluetooth in OCaml: one preemption" (fun () ->
        (* transliteration of the Bluetooth model against the shim API *)
        let pending_io = Api.Shared.make 1 in
        let stopping = Api.Shared.make false in
        let stopped = Api.Shared.make false in
        let stop_ev = Api.Event.create ~manual:true () in
        let release_ref () =
          if Api.Shared.fetch_add pending_io (-1) = 1 then
            Api.Event.set stop_ev
        in
        Api.spawn (fun () ->
            if not (Api.Shared.get stopping) then begin
              ignore (Api.Shared.fetch_add pending_io 1);
              if Api.Shared.get stopped then
                failwith "I/O processed after the driver stopped";
              release_ref ()
            end);
        Api.spawn (fun () ->
            Api.Shared.set stopping true;
            release_ref ();
            Api.Event.wait stop_ev;
            Api.Shared.set stopped true))
      1;
    clean "fixed bluetooth in OCaml" ~max_bound:4 (fun () ->
        let pending_io = Api.Shared.make 1 in
        let stopping = Api.Shared.make false in
        let stopped = Api.Shared.make false in
        let stop_ev = Api.Event.create ~manual:true () in
        let m = Api.Mutex.create () in
        let release_ref () =
          if Api.Shared.fetch_add pending_io (-1) = 1 then
            Api.Event.set stop_ev
        in
        Api.spawn (fun () ->
            let added =
              Api.Mutex.with_lock m (fun () ->
                  if not (Api.Shared.get stopping) then begin
                    ignore (Api.Shared.fetch_add pending_io 1);
                    true
                  end
                  else false)
            in
            if added then begin
              if Api.Shared.get stopped then
                failwith "I/O processed after the driver stopped";
              release_ref ()
            end);
        Api.spawn (fun () ->
            Api.Mutex.with_lock m (fun () -> Api.Shared.set stopping true);
            release_ref ();
            Api.Event.wait stop_ev;
            Api.Shared.set stopped true));
    bug_preemptions "deadlock through lock ordering" (fun () ->
        let a = Api.Mutex.create () in
        let b = Api.Mutex.create () in
        let d = Api.Semaphore.create 0 in
        Api.spawn (fun () ->
            Api.Mutex.lock a;
            Api.Mutex.lock b;
            Api.Mutex.unlock b;
            Api.Mutex.unlock a;
            Api.Semaphore.release d);
        Api.spawn (fun () ->
            Api.Mutex.lock b;
            Api.Mutex.lock a;
            Api.Mutex.unlock a;
            Api.Mutex.unlock b;
            Api.Semaphore.release d);
        Api.Semaphore.acquire d;
        Api.Semaphore.acquire d)
      1;
    clean "yield is harmless" (fun () ->
        let d = Api.Semaphore.create 0 in
        Api.spawn (fun () ->
            Api.yield ();
            Api.Semaphore.release d);
        Api.yield ();
        Api.Semaphore.acquire d);
  ]

(* --- engine behaviour ------------------------------------------------------- *)

let engine_tests =
  [
    Alcotest.test_case "stateless exploration is complete and replays" `Quick
      (fun () ->
        let test () =
          let m = Api.Mutex.create () in
          let g = Api.Data.make 0 in
          let d = Api.Semaphore.create 0 in
          for _ = 1 to 2 do
            Api.spawn (fun () ->
                Api.Mutex.with_lock m (fun () ->
                    Api.Data.set g (Api.Data.get g + 1));
                Api.Semaphore.release d)
          done;
          Api.Semaphore.acquire d;
          Api.Semaphore.acquire d
        in
        let before = CE.replays () in
        let r =
          CE.run ~strategy:(Explore.Icb { max_bound = None; cache = false })
            test
        in
        check Alcotest.bool "complete" true r.Sresult.complete;
        check Alcotest.int "no bugs" 0 (List.length r.bugs);
        check Alcotest.bool "replays happened (stateless branching)" true
          (CE.replays () > before));
    Alcotest.test_case "exploration is reproducible" `Quick (fun () ->
        let test () =
          let x = Api.Shared.make 0 in
          let d = Api.Semaphore.create 0 in
          for i = 1 to 2 do
            Api.spawn (fun () ->
                Api.Shared.set x i;
                Api.Semaphore.release d)
          done;
          Api.Semaphore.acquire d;
          Api.Semaphore.acquire d
        in
        let run () =
          let r =
            CE.run ~strategy:(Explore.Icb { max_bound = None; cache = false })
              test
          in
          (r.Sresult.executions, r.distinct_states)
        in
        check
          (Alcotest.pair Alcotest.int Alcotest.int)
          "identical" (run ()) (run ()));
    Alcotest.test_case "thread bodies propagate exceptions as bugs" `Quick
      (fun () ->
        match CE.check (fun () -> Api.spawn (fun () -> invalid_arg "boom")) with
        | Some b ->
          check Alcotest.bool "mentions boom" true
            (String.length b.Sresult.msg > 0)
        | None -> Alcotest.fail "expected a bug");
    Alcotest.test_case "machine and chess agree on bluetooth's bound" `Quick
      (fun () ->
        (* the model-based and the real-code-based checker expose the same
           bug at the same minimal preemption count *)
        let model_bug =
          Icb.check (Icb_models.Bluetooth.program ~bug:true)
        in
        let code_bug =
          CE.check (fun () ->
              let pending_io = Api.Shared.make 1 in
              let stopping = Api.Shared.make false in
              let stopped = Api.Shared.make false in
              let stop_ev = Api.Event.create ~manual:true () in
              let release_ref () =
                if Api.Shared.fetch_add pending_io (-1) = 1 then
                  Api.Event.set stop_ev
              in
              Api.spawn (fun () ->
                  if not (Api.Shared.get stopping) then begin
                    ignore (Api.Shared.fetch_add pending_io 1);
                    if Api.Shared.get stopped then
                      failwith "I/O processed after the driver stopped";
                    release_ref ()
                  end);
              Api.spawn (fun () ->
                  Api.Shared.set stopping true;
                  release_ref ();
                  Api.Event.wait stop_ev;
                  Api.Shared.set stopped true))
        in
        match model_bug, code_bug with
        | Some a, Some b ->
          check Alcotest.int "same minimal bound" a.Sresult.preemptions
            b.Sresult.preemptions
        | _ -> Alcotest.fail "both checkers must find the bug");
    Alcotest.test_case "the state cache is refused without snapshots" `Quick
      (fun () ->
        (* the caches key on the happens-before signature, which a
           thread's first step leaves unchanged: a cached search would
           explore nothing and call the space complete *)
        let body () =
          let module Q = Icb_lockfree.Msqueue in
          let q = Q.create () in
          let d = Api.Semaphore.create 0 in
          for v = 1 to 2 do
            Api.spawn (fun () ->
                Q.enqueue q v;
                Api.Semaphore.release d)
          done;
          Api.Semaphore.acquire d;
          Api.Semaphore.acquire d;
          ignore (Q.dequeue q)
        in
        List.iter
          (fun (name, strategy) ->
            match CE.run ~strategy body with
            | exception Invalid_argument msg ->
              check Alcotest.bool (name ^ " is named") true
                (String.starts_with ~prefix:(name ^ ":") msg)
            | r ->
              Alcotest.failf "%s ran cached: %d executions, complete %b" name
                r.Sresult.executions r.Sresult.complete)
          [
            ("icb:2", Explore.Icb { max_bound = Some 2; cache = true });
            ("dfs", Explore.Dfs { cache = true });
            ("most-enabled", Explore.Most_enabled { cache = true });
          ]);
  ]

(* --- the work-stealing queue, transliterated ------------------------------ *)

(* The paper's central benchmark in real OCaml against the shim API; the
   same THE protocol as the zlang model in Icb_models.Workstealing, so the
   two checkers can be cross-validated on it. *)
let wsq_test ~pop_reads_head_first () =
  let head = Api.Shared.make 0 in
  let tail = Api.Shared.make 0 in
  let items = Array.make 2 (Api.Data.make 0) in
  for i = 0 to 1 do
    items.(i) <- Api.Data.make 0
  done;
  let taken = Array.init 3 (fun _ -> Api.Shared.make 0) in
  let consumed = Api.Shared.make 0 in
  let m = Api.Mutex.create () in
  let done_ = Api.Semaphore.create 0 in
  let consume got =
    if got >= 0 then begin
      if Api.Shared.fetch_add taken.(got) 1 <> 0 then
        failwith "item consumed twice";
      ignore (Api.Shared.fetch_add consumed 1)
    end
  in
  let push v =
    let t = Api.Shared.get tail in
    let h = Api.Shared.get head in
    if t - h >= 2 then failwith "push to a full queue";
    Api.Data.set items.(t mod 2) v;
    Api.Shared.set tail (t + 1)
  in
  let pop () =
    let t = Api.Shared.get tail - 1 in
    if pop_reads_head_first then begin
      (* the seeded bug: peek at the head before publishing the reserved
         tail, breaking the Dekker handshake on the last item *)
      let h = Api.Shared.get head in
      Api.Shared.set tail t;
      if t < h then begin
        Api.Shared.set tail (t + 1);
        Api.Mutex.with_lock m (fun () ->
            let h = Api.Shared.get head in
            let t = Api.Shared.get tail - 1 in
            if t >= h then begin
              let v = Api.Data.get items.(t mod 2) in
              Api.Shared.set tail t;
              v
            end
            else -1)
      end
      else Api.Data.get items.(t mod 2)
    end
    else begin
      Api.Shared.set tail t;
      let h = Api.Shared.get head in
      if t < h then begin
        Api.Shared.set tail (t + 1);
        Api.Mutex.with_lock m (fun () ->
            let h = Api.Shared.get head in
            let t = Api.Shared.get tail - 1 in
            if t >= h then begin
              let v = Api.Data.get items.(t mod 2) in
              Api.Shared.set tail t;
              v
            end
            else -1)
      end
      else Api.Data.get items.(t mod 2)
    end
  in
  let steal () =
    Api.Mutex.with_lock m (fun () ->
        let h = Api.Shared.get head in
        Api.Shared.set head (h + 1);
        let t = Api.Shared.get tail in
        if h < t then Api.Data.get items.(h mod 2)
        else begin
          Api.Shared.set head h;
          -1
        end)
  in
  Api.spawn (fun () ->
      push 0;
      push 1;
      consume (pop ());
      push 2;
      Api.Semaphore.release done_);
  Api.spawn (fun () ->
      for _ = 1 to 3 do
        consume (steal ())
      done;
      Api.Semaphore.release done_);
  Api.Semaphore.acquire done_;
  Api.Semaphore.acquire done_;
  let live = Api.Shared.get tail - Api.Shared.get head in
  if Api.Shared.get consumed + live <> 3 then failwith "items were lost"

let wsq_tests =
  [
    Alcotest.test_case "correct THE protocol verified to bound 2" `Slow
      (fun () ->
        match CE.check ~max_bound:2 (wsq_test ~pop_reads_head_first:false) with
        | Some b -> Alcotest.failf "unexpected bug: %s" b.Sresult.msg
        | None -> ());
    Alcotest.test_case
      "pop-reads-head-first found at the model's bound (cross-validation)"
      `Quick (fun () ->
        (* the zlang model finds this mutation at exactly 1 preemption;
           the real-code checker must agree *)
        match CE.check ~max_bound:1 (wsq_test ~pop_reads_head_first:true) with
        | Some b ->
          check Alcotest.int "same minimal bound as the model" 1
            b.Sresult.preemptions
        | None -> Alcotest.fail "expected the handshake bug at bound 1");
  ]

let () =
  Alcotest.run "chess"
    [
      ("primitives", primitive_tests);
      ("finding", finding_tests);
      ("engine", engine_tests);
      ("wsq", wsq_tests);
    ]

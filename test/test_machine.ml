(* Machine semantics, exercised through small modeling-language programs
   executed under controlled schedules. *)

module Interp = Icb_machine.Interp
module State = Icb_machine.State
module Merr = Icb_machine.Merr
module Value = Icb_machine.Value

let check = Alcotest.check

let compile = Icb.compile

(* Drive a program with an explicit schedule; return the final state. *)
let run_schedule ?(gran = Interp.Every_access) prog schedule =
  let r = Interp.start gran prog in
  List.fold_left
    (fun st tid -> (Interp.step gran st tid).Interp.state)
    r.Interp.state schedule

(* Run to completion scheduling the lowest enabled thread first. *)
let run_round_robin ?(gran = Interp.Every_access) ?(max_steps = 10_000) prog =
  let r = Interp.start gran prog in
  let st = ref r.Interp.state in
  let steps = ref 0 in
  let rec go () =
    match Interp.enabled !st with
    | [] -> ()
    | t :: _ ->
      incr steps;
      if !steps > max_steps then failwith "test: did not terminate";
      st := (Interp.step gran !st t).Interp.state;
      go ()
  in
  go ();
  !st

let status_testable =
  Alcotest.testable
    (fun fmt -> function
      | Interp.Running -> Format.fprintf fmt "running"
      | Interp.Terminated -> Format.fprintf fmt "terminated"
      | Interp.Deadlock l ->
        Format.fprintf fmt "deadlock %s"
          (String.concat "," (List.map string_of_int l))
      | Interp.Error e -> Format.fprintf fmt "error: %a" Merr.pp e)
    (fun a b ->
      match a, b with
      | Interp.Running, Interp.Running | Interp.Terminated, Interp.Terminated ->
        true
      | Interp.Deadlock x, Interp.Deadlock y -> x = y
      | Interp.Error x, Interp.Error y -> Merr.key x = Merr.key y
      | _ -> false)

let global_int st name =
  let gid = Icb_machine.Prog.find_global st.State.prog name in
  Value.as_int (State.global_get st ~gid ~idx:0)

(* --- arithmetic and locals ----------------------------------------------- *)

let arith_tests =
  [
    Alcotest.test_case "expressions evaluate" `Quick (fun () ->
        let st =
          run_round_robin
            (compile
               {|
var r1: int; var r2: int; var r3: bool; var r4: int;
main {
  var x: int = 7;
  var y: int = 3;
  r1 = x + y * 2;
  r2 = (x - y) / 2;
  r3 = x > y && !(x == y);
  r4 = x % y;
}
|})
        in
        check Alcotest.int "r1" 13 (global_int st "r1");
        check Alcotest.int "r2" 2 (global_int st "r2");
        check Alcotest.int "r4" 1 (global_int st "r4");
        check Alcotest.string "terminated" "terminated"
          (match Interp.status st with Interp.Terminated -> "terminated" | _ -> "no"));
    Alcotest.test_case "division by zero is a model error" `Quick (fun () ->
        let st =
          run_round_robin
            (compile {|
var r: int;
main { var z: int = 0; r = 5 / z; }
|})
        in
        check status_testable "div0"
          (Interp.Error (Merr.Division_by_zero { tid = 0 }))
          (Interp.status st));
    Alcotest.test_case "short-circuit && skips shared reads" `Quick (fun () ->
        (* the right operand reads a global; with a false left operand the
           read must not happen, so the whole evaluation is one step *)
        let prog =
          compile
            {|
var g: int = 1;
var r: bool;
main { var f: bool = false; r = f && g == 1; g = 2; }
|}
        in
        let r = Interp.start Interp.Every_access prog in
        let r1 = Interp.step Interp.Every_access r.Interp.state 0 in
        (* first step: the Store to r (the g read was skipped) *)
        check Alcotest.int "one event" 1 (List.length r1.Interp.events));
    Alcotest.test_case "while loops and break/continue" `Quick (fun () ->
        let st =
          run_round_robin
            (compile
               {|
var r: int;
main {
  var i: int = 0;
  var acc: int = 0;
  while (true) {
    i = i + 1;
    if (i == 3) { continue; }
    if (i > 6) { break; }
    acc = acc + i;
  }
  r = acc;
}
|})
        in
        (* 1 + 2 + 4 + 5 + 6 = 18 *)
        check Alcotest.int "acc" 18 (global_int st "r"));
    Alcotest.test_case "local divergence detected" `Quick (fun () ->
        let st =
          run_round_robin
            (compile {|
main { var x: int = 0; while (x == 0) { skip; } }
|})
        in
        check status_testable "divergence"
          (Interp.Error (Merr.Local_divergence { tid = 0 }))
          (Interp.status st));
  ]

(* --- synchronization ------------------------------------------------------ *)

let sync_tests =
  [
    Alcotest.test_case "mutex blocks and unblocks" `Quick (fun () ->
        let prog =
          compile
            {|
mutex m;
var r: int;
proc other() { lock(m); r = 2; unlock(m); }
main { lock(m); spawn other(); r = 1; unlock(m); }
|}
        in
        let r = Interp.start Interp.Every_access prog in
        let st = ref r.Interp.state in
        let step t = st := (Interp.step Interp.Every_access !st t).Interp.state in
        step 0 (* lock *);
        step 0 (* spawn *);
        check (Alcotest.list Alcotest.int) "thread 1 blocked" [ 0 ]
          (Interp.enabled !st);
        step 0 (* store *);
        step 0 (* unlock *);
        check (Alcotest.list Alcotest.int) "thread 1 released" [ 1 ]
          (Interp.enabled !st));
    (* Distributed workers can be threads of one domain (test_dist runs
       them so): enabledness must not depend on state shared across
       calls. *)
    Alcotest.test_case "enabled is safe across threads of one domain" `Quick
      (fun () ->
        let prog =
          compile
            {|
mutex m;
var r: int;
proc other() { lock(m); r = 2; unlock(m); }
main { lock(m); spawn other(); r = 1; unlock(m); }
|}
        in
        let after n =
          run_schedule prog (List.init n (fun _ -> 0))
        in
        let wrong = Atomic.make 0 in
        let hammer st expected () =
          let until = Unix.gettimeofday () +. 1.0 in
          while Unix.gettimeofday () < until do
            for _ = 1 to 1000 do
              if Interp.enabled st <> expected then Atomic.incr wrong
            done
          done
        in
        let a = Thread.create (hammer (after 2) [ 0 ]) () in
        let b = Thread.create (hammer (after 4) [ 1 ]) () in
        Thread.join a;
        Thread.join b;
        check Alcotest.int "wrong answers" 0 (Atomic.get wrong));
    Alcotest.test_case "unlock not held is an error" `Quick (fun () ->
        let st = run_round_robin (compile {|
mutex m;
main { unlock(m); }
|}) in
        check status_testable "unlock"
          (Interp.Error (Merr.Unlock_not_held { tid = 0; sync = "m" }))
          (Interp.status st));
    Alcotest.test_case "self-deadlock on double lock" `Quick (fun () ->
        let st =
          run_round_robin (compile {|
mutex m;
main { lock(m); lock(m); }
|})
        in
        check status_testable "deadlock" (Interp.Deadlock [ 0 ])
          (Interp.status st));
    Alcotest.test_case "auto-reset event consumes the signal" `Quick (fun () ->
        let st =
          run_round_robin
            (compile
               {|
event e;
var r: int;
proc w() { wait(e); r = r + 1; }
main { spawn w(); spawn w(); signal(e); }
|})
        in
        (* one worker passes, the other deadlocks; round-robin runs main to
           completion first, then thread 1 consumes the signal *)
        check status_testable "one blocked" (Interp.Deadlock [ 2 ])
          (Interp.status st);
        check Alcotest.int "one increment" 1 (global_int st "r"));
    Alcotest.test_case "manual-reset event stays signaled" `Quick (fun () ->
        let st =
          run_round_robin
            (compile
               {|
event manual e;
var r: int;
proc w() { wait(e); r = r + 1; }
main { spawn w(); spawn w(); signal(e); }
|})
        in
        check status_testable "all done" Interp.Terminated (Interp.status st);
        check Alcotest.int "both ran" 2 (global_int st "r"));
    Alcotest.test_case "initially signaled event" `Quick (fun () ->
        let st =
          run_round_robin
            (compile {|
event manual signaled e;
var r: int;
main { wait(e); r = 1; }
|})
        in
        check Alcotest.int "passed" 1 (global_int st "r"));
    Alcotest.test_case "reset clears a manual event" `Quick (fun () ->
        let st =
          run_round_robin
            (compile
               {|
event manual e;
proc w() { wait(e); }
main { signal(e); reset(e); spawn w(); }
|})
        in
        check status_testable "blocked" (Interp.Deadlock [ 1 ]) (Interp.status st));
    Alcotest.test_case "semaphore counts" `Quick (fun () ->
        let st =
          run_round_robin
            (compile
               {|
sem s = 2;
var r: int;
proc w() { acquire(s); r = r + 1; }
main { spawn w(); spawn w(); spawn w(); }
|})
        in
        (* two acquires pass, the third blocks *)
        check status_testable "third blocked" (Interp.Deadlock [ 3 ])
          (Interp.status st);
        check Alcotest.int "two passed" 2 (global_int st "r"));
    Alcotest.test_case "cas and fetch_add" `Quick (fun () ->
        let st =
          run_round_robin
            (compile
               {|
volatile var v: int = 5;
var r1: int; var r2: int; var r3: int; var after: int;
main {
  var t: int;
  t = cas(v, 5, 7);         // succeeds: old = 5
  r1 = t;
  t = cas(v, 5, 9);         // fails: old = 7
  r2 = t;
  t = fetch_add(v, 3);      // old = 7, v = 10
  r3 = t;
  after = v;
}
|})
        in
        check Alcotest.int "r1" 5 (global_int st "r1");
        check Alcotest.int "r2" 7 (global_int st "r2");
        check Alcotest.int "r3" 7 (global_int st "r3");
        check Alcotest.int "after" 10 (global_int st "after"));
    Alcotest.test_case "spawn passes arguments" `Quick (fun () ->
        let st =
          run_round_robin
            (compile
               {|
var r: int;
proc w(a: int, b: int) { r = a * 10 + b; }
main { spawn w(4, 2); }
|})
        in
        check Alcotest.int "args" 42 (global_int st "r"));
    Alcotest.test_case "yield defers to the other thread once" `Quick (fun () ->
        let prog =
          compile {|
var r: int;
proc w() { r = 2; }
main { spawn w(); yield; r = 1; }
|}
        in
        let r = Interp.start Interp.Every_access prog in
        let st = ref r.Interp.state in
        let step t = st := (Interp.step Interp.Every_access !st t).Interp.state in
        step 0 (* spawn *);
        step 0 (* yield executes; main now deprioritized *);
        check (Alcotest.list Alcotest.int) "only w schedulable" [ 1 ]
          (Interp.enabled !st));
  ]

(* --- atomic blocks --------------------------------------------------------- *)

let atomic_tests =
  [
    Alcotest.test_case "atomic protects a torn increment" `Quick (fun () ->
        let prog =
          compile
            {|
volatile var g: int;
event manual d1; event manual d2;
proc w(id: int) {
  atomic {
    var v: int = g;
    g = v + 1;
  }
  if (id == 0) { signal(d1); } else { signal(d2); }
}
main {
  spawn w(0); spawn w(1);
  wait(d1); wait(d2);
  var r: int = g;
  assert(r == 2, "lost update");
}
|}
        in
        check Alcotest.bool "verified" true (Icb.check prog ~max_bound:4 = None));
    Alcotest.test_case "the same code without atomic loses an update" `Quick
      (fun () ->
        let prog =
          compile
            {|
volatile var g: int;
event manual d1; event manual d2;
proc w(id: int) {
  var v: int = g;
  g = v + 1;
  if (id == 0) { signal(d1); } else { signal(d2); }
}
main {
  spawn w(0); spawn w(1);
  wait(d1); wait(d2);
  var r: int = g;
  assert(r == 2, "lost update");
}
|}
        in
        match Icb.check prog with
        | Some b -> check Alcotest.int "at one preemption" 1 b.preemptions
        | None -> Alcotest.fail "expected the lost update");
    Alcotest.test_case "blocking inside atomic releases atomicity" `Quick
      (fun () ->
        (* main holds the lock while spawning, so the worker must block
           inside its atomic section and resume later *)
        let prog =
          compile
            {|
volatile var g: int;
mutex m;
event manual d1;
proc w() {
  atomic {
    lock(m);
    g = g + 1;
    unlock(m);
  }
  signal(d1);
}
main {
  lock(m);
  spawn w();
  g = 10;
  unlock(m);
  wait(d1);
  var r: int = g;
  assert(r == 11, "atomic section ran before the unlock");
}
|}
        in
        check Alcotest.bool "verified" true (Icb.check prog ~max_bound:4 = None));
    Alcotest.test_case "whole atomic section is one step" `Quick (fun () ->
        let prog =
          compile
            {|
volatile var a: int; volatile var b: int; volatile var c: int;
main { atomic { a = 1; b = 2; c = 3; } }
|}
        in
        (* the atomic section has no scheduling point inside, so the whole
           body runs while parking the initial thread *)
        let r = Interp.start Interp.Sync_only prog in
        check Alcotest.int "three events in one stretch" 3
          (List.length r.Interp.events);
        check status_testable "done" Interp.Terminated
          (Interp.status r.Interp.state));
    Alcotest.test_case "yield inside atomic is rejected" `Quick (fun () ->
        match compile "main { atomic { yield; } }" with
        | exception Icb.Compile_error _ -> ()
        | _ -> Alcotest.fail "expected a type error");
    Alcotest.test_case "break escaping an atomic is rejected" `Quick (fun () ->
        match
          compile
            "main { var i: int; while (i < 3) { atomic { break; } } }"
        with
        | exception Icb.Compile_error _ -> ()
        | _ -> Alcotest.fail "expected a type error");
    Alcotest.test_case "loops and break inside atomic are fine" `Quick
      (fun () ->
        let st =
          run_round_robin
            (compile
               {|
var g: int;
main {
  atomic {
    var i: int;
    while (true) {
      i = i + 1;
      if (i > 2) { break; }
    }
    g = i;
  }
}
|})
        in
        check Alcotest.int "loop result" 3 (global_int st "g"));
    Alcotest.test_case "nested atomics" `Quick (fun () ->
        let st =
          run_round_robin
            (compile
               {|
var g: int;
main { atomic { g = 1; atomic { g = g + 1; } g = g + 1; } }
|})
        in
        check Alcotest.int "nested" 3 (global_int st "g"));
  ]

(* --- heap ----------------------------------------------------------------- *)

let heap_tests =
  [
    Alcotest.test_case "alloc, store, load, free" `Quick (fun () ->
        let st =
          run_round_robin
            (compile
               {|
var r: int;
main {
  var h: handle;
  h = alloc(2);
  h[0] = 11;
  h[1] = 31;
  r = h[0] + h[1];
  free(h);
}
|})
        in
        check Alcotest.int "sum" 42 (global_int st "r");
        check status_testable "ok" Interp.Terminated (Interp.status st));
    Alcotest.test_case "use after free" `Quick (fun () ->
        let st =
          run_round_robin
            (compile
               {|
var r: int;
main { var h: handle; h = alloc(1); free(h); r = h[0]; }
|})
        in
        check status_testable "uaf"
          (Interp.Error (Merr.Use_after_free { tid = 0; addr = 0 }))
          (Interp.status st));
    Alcotest.test_case "double free" `Quick (fun () ->
        let st =
          run_round_robin
            (compile {|
main { var h: handle; h = alloc(1); free(h); free(h); }
|})
        in
        check status_testable "df"
          (Interp.Error (Merr.Double_free { tid = 0; addr = 0 }))
          (Interp.status st));
    Alcotest.test_case "heap index out of bounds" `Quick (fun () ->
        let st =
          run_round_robin
            (compile {|
main { var h: handle; h = alloc(2); h[2] = 1; }
|})
        in
        check status_testable "oob"
          (Interp.Error
             (Merr.Out_of_bounds { tid = 0; what = "&0"; idx = 2; size = 2 }))
          (Interp.status st));
    Alcotest.test_case "null handle dereference" `Quick (fun () ->
        let st =
          run_round_robin
            (compile {|
var r: int;
main { var h: handle; r = h[0]; }
|})
        in
        check status_testable "invalid"
          (Interp.Error (Merr.Invalid_handle { tid = 0; addr = -1 }))
          (Interp.status st));
    Alcotest.test_case "array out of bounds" `Quick (fun () ->
        let st =
          run_round_robin
            (compile {|
var a[3]: int;
main { var i: int = 5; a[i] = 1; }
|})
        in
        check status_testable "oob"
          (Interp.Error
             (Merr.Out_of_bounds { tid = 0; what = "a"; idx = 5; size = 3 }))
          (Interp.status st));
  ]

(* --- canonical state fingerprints ----------------------------------------- *)

let signature_tests =
  [
    Alcotest.test_case "heap symmetry: allocation order is canonicalized"
      `Quick (fun () ->
        (* two programs allocate the same two objects in opposite orders and
           store the handles in swapped globals; the canonical form must
           coincide *)
        let p1 =
          compile
            {|
var a: handle; var b: handle;
main { var x: handle; var y: handle; x = alloc(1); y = alloc(2); a = x; b = y; }
|}
        in
        let p2 =
          compile
            {|
var a: handle; var b: handle;
main { var x: handle; var y: handle; y = alloc(2); x = alloc(1); a = x; b = y; }
|}
        in
        let s1 = run_round_robin p1 and s2 = run_round_robin p2 in
        check Alcotest.int64 "signatures equal" (State.signature s1)
          (State.signature s2));
    Alcotest.test_case "different values, different fingerprints" `Quick
      (fun () ->
        let make v =
          run_round_robin
            (compile (Printf.sprintf {|
var g: int;
main { g = %d; }
|} v))
        in
        check Alcotest.bool "differ" true
          (State.signature (make 1) <> State.signature (make 2)));
    Alcotest.test_case "same schedule is deterministic" `Quick (fun () ->
        let prog = Icb_models.Workstealing.program Icb_models.Workstealing.Correct in
        let s1 = run_schedule ~gran:Interp.Sync_only prog [ 0; 0; 1; 1; 2 ] in
        let s2 = run_schedule ~gran:Interp.Sync_only prog [ 0; 0; 1; 1; 2 ] in
        check Alcotest.string "canonical repr equal" (State.canonical_repr s1)
          (State.canonical_repr s2));
    Alcotest.test_case "every-access steps perform at most one shared access"
      `Quick (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:true in
        let r = Interp.start Interp.Every_access prog in
        let st = ref r.Interp.state in
        let ok = ref true in
        let rec go n =
          if n > 0 then
            match Interp.enabled !st with
            | [] -> ()
            | t :: _ ->
              let res = Interp.step Interp.Every_access !st t in
              let shared =
                List.length
                  (List.filter
                     (function
                       | Interp.Ev_fork _ | Interp.Ev_sync _
                       | Interp.Ev_data _ -> true
                       | Interp.Ev_lifetime _ -> false)
                     res.Interp.events)
              in
              if shared > 1 then ok := false;
              st := res.Interp.state;
              go (n - 1)
        in
        go 200;
        check Alcotest.bool "at most one shared access per step" true !ok);
    Alcotest.test_case "the streamed signature hashes the canonical bytes"
      `Quick (fun () ->
        (* 20 seeded random walks per addressable program and granularity;
           every state on them, heap, error and deadlock states included *)
        let states = ref 0 in
        List.iteri
          (fun pi (name, mk) ->
            let prog = mk () in
            List.iteri
              (fun gi gran ->
                for walk = 1 to 20 do
                  let rng = Random.State.make [| pi; gi; walk |] in
                  let rec go st depth =
                    incr states;
                    let expected =
                      Icb_util.Fnv.hash_string (State.canonical_repr st)
                    in
                    if State.signature st <> expected then
                      Alcotest.failf "%s walk %d depth %d: %s <> %s" name walk
                        depth
                        (Icb_util.Fnv.to_hex (State.signature st))
                        (Icb_util.Fnv.to_hex expected);
                    match (Interp.status st, Interp.enabled st) with
                    | Interp.Running, (_ :: _ as en) when depth < 3000 ->
                      let tid =
                        List.nth en (Random.State.int rng (List.length en))
                      in
                      go (Interp.step gran st tid).Interp.state (depth + 1)
                    | _ -> ()
                  in
                  go (Interp.start gran prog).Interp.state 0
                done)
              [ Interp.Sync_only; Interp.Every_access ])
          (Icb_models.Registry.addressable ());
        check Alcotest.bool "walked" true (!states > 10_000));
    Alcotest.test_case "the canonical format is pinned" `Quick (fun () ->
        (* checkpoints and wire snapshots store signatures of this format;
           the expected strings were produced by the serializer they
           replaced *)
        let prog =
          {
            Icb_machine.Prog.globals = [||];
            syncs = [||];
            procs =
              [|
                { Icb_machine.Prog.pname = "main"; nparams = 0; nregs = 2;
                  code = [||] };
              |];
            main = 0;
          }
        in
        let cell data = { State.data; freed = false } in
        let heap =
          List.fold_left
            (fun m (addr, c) -> State.Heap_map.add addr c m)
            State.Heap_map.empty
            [
              (* reached from the globals, higher address first *)
              (5, cell [| Value.Handle 8; Value.Handle 2; Value.Int (-3) |]);
              (2, cell [| Value.Bool false |]);
              (* reached from [5] only: a LIFO walk would write it early *)
              (8, cell [| Value.Int 42 |]);
              (* freed, reached from a register *)
              (7, { State.data = [| Value.Int 1 |]; freed = true });
              (* leaked: live, unreachable, pointing at another leak *)
              (9, cell [| Value.Handle 11 |]);
              (11, cell [| Value.Int 0 |]);
              (* freed and unreachable: not written at all *)
              (12, { State.data = [| Value.Int 6 |]; freed = true });
            ]
        in
        let thread proc pc regs ~finished ~yielded ~atomic =
          { State.proc; pc; regs; finished; yielded; atomic }
        in
        let st =
          {
            (State.initial prog) with
            State.globals =
              [|
                Value.Int min_int; Value.Int max_int; Value.Int (-17);
                Value.Handle 5; Value.Handle 2; Value.Handle (-1);
                Value.Bool true;
              |];
            syncs =
              [|
                State.Mutex_cell (-1); State.Mutex_cell 1;
                State.Event_cell true; State.Event_cell false;
                State.Sem_cell (-2);
              |];
            threads =
              [|
                thread 0 12 [| Value.Handle 7; Value.Int 0 |] ~finished:false
                  ~yielded:true ~atomic:0;
                thread 3 (-1) [| Value.Handle 2; Value.Int 10 |]
                  ~finished:true ~yielded:false ~atomic:2;
              |];
            heap;
            next_addr = 13;
            error = Some (Merr.Assert_failure { tid = 1; msg = "boom" });
          }
        in
        check Alcotest.string "canonical repr"
          ("i-4611686018427387904;i4611686018427387903;i-17;h0;h1;h-1;T;"
         ^ "|m-1;m1;E;e;s-2;"
         ^ "|0:12RY0,h2;i0;/3:-1XN2,h1;i10;/"
         ^ "|[h3;h1;i-3;][F;]![i42;]L[h5;][i0;]"
         ^ "|assert:boom")
          (State.canonical_repr st);
        check Alcotest.string "signature" "4f48c51d31a46fcd"
          (Icb_util.Fnv.to_hex (State.signature st)));
  ]

(* --- program validation ---------------------------------------------------- *)

let validate_tests =
  [
    Alcotest.test_case "all bundled models validate" `Quick (fun () ->
        List.iter
          (fun (e : Icb_models.Registry.entry) ->
            (match e.correct_program with
            | Some p ->
              Alcotest.(check (result unit string))
                (e.model_name ^ " correct") (Ok ())
                (Icb_machine.Prog.validate (p ()))
            | None -> ());
            List.iter
              (fun (b : Icb_models.Registry.bug_spec) ->
                Alcotest.(check (result unit string))
                  (e.model_name ^ "/" ^ b.bug_name)
                  (Ok ())
                  (Icb_machine.Prog.validate (b.bug_program ())))
              e.bugs)
          Icb_models.Registry.all);
    Alcotest.test_case "validate catches a bad jump" `Quick (fun () ->
        let open Icb_machine in
        let prog =
          {
            Prog.globals = [||];
            syncs = [||];
            procs =
              [|
                {
                  Prog.pname = "main";
                  nparams = 0;
                  nregs = 1;
                  code = [| Instr.Jump 99 |];
                };
              |];
            main = 0;
          }
        in
        check Alcotest.bool "rejected" true
          (Result.is_error (Prog.validate prog)));
  ]

let () =
  Alcotest.run "machine"
    [
      ("arith", arith_tests);
      ("sync", sync_tests);
      ("atomic", atomic_tests);
      ("heap", heap_tests);
      ("signature", signature_tests);
      ("validate", validate_tests);
    ]

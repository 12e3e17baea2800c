module Interp = Icb_machine.Interp

exception Chess_misuse of string

let misuse fmt = Format.kasprintf (fun s -> raise (Chess_misuse s)) fmt

(* --- the scheduling effect ---------------------------------------------

   A thread performs [E_sched point] immediately BEFORE each of its
   synchronization operations; the handler parks the continuation.  The
   operation's mutation happens in the thread's own code right after the
   continuation is resumed, so it executes atomically with the code that
   follows, up to the next perform — exactly the machine's step shape. *)

type sched_point = {
  var : Interp.var_id;
  enabled : unit -> bool;
  blocking : bool;   (* a potentially-blocking operation (lock/wait/acquire) *)
  is_yield : bool;
}

type _ Effect.t += E_sched : sched_point -> unit Effect.t

type thread_state =
  | T_not_started of (unit -> unit)
  | T_parked of sched_point * (unit, unit) Effect.Deep.continuation
  | T_done

type thread_rec = {
  mutable st : thread_state;
  mutable yielded : bool;
}

type run_t = {
  mutable threads : thread_rec array;
  mutable nthreads : int;
  mutable current : int;
  mutable next_var : int;
  mutable events : Interp.event list;  (* current step's, reversed *)
  mutable failure : string option;
  mutable last_blocking : bool;
}

(* The runtime is single-threaded; the run being advanced is held here so
   the shim primitives can reach it. *)
let active : run_t option ref = ref None

let the_run () =
  match !active with
  | Some r -> r
  | None -> misuse "Chess primitives must run under Icb_chess exploration"

let tid () = (the_run ()).current

let fresh_var r =
  let v = r.next_var in
  r.next_var <- v + 1;
  v

let record r ev = r.events <- ev :: r.events

let always_enabled () = true

(* Park-before-op: returns once the scheduler picks this thread again. *)
let sched ?(blocking = false) ?(is_yield = false) ~var ~enabled () =
  Effect.perform (E_sched { var; enabled; blocking; is_yield })

(* --- shim primitives ---------------------------------------------------- *)

let spawn body =
  let r = the_run () in
  let parent = r.current in
  sched ~var:(Interp.Svar (-2, 0)) ~enabled:always_enabled ();
  let r = the_run () in
  if r.nthreads = Array.length r.threads then begin
    let bigger =
      Array.make (2 * max 4 r.nthreads) { st = T_done; yielded = false }
    in
    Array.blit r.threads 0 bigger 0 r.nthreads;
    r.threads <- bigger
  end;
  let child = r.nthreads in
  r.threads.(child) <- { st = T_not_started body; yielded = false };
  r.nthreads <- child + 1;
  record r (Interp.Ev_fork { parent; child })

let yield () =
  let r = the_run () in
  let me = r.current in
  sched ~is_yield:true ~var:(Interp.Svar (-3, me)) ~enabled:always_enabled ()

module Mutex = struct
  type t = {
    mid : int;
    mutable owner : int;
  }

  let create () = { mid = fresh_var (the_run ()); owner = -1 }

  let lock m =
    let var = Interp.Svar (m.mid, 0) in
    sched ~blocking:true ~var ~enabled:(fun () -> m.owner < 0) ();
    let r = the_run () in
    record r (Interp.Ev_sync { tid = r.current; var });
    m.owner <- r.current

  let unlock m =
    let var = Interp.Svar (m.mid, 0) in
    sched ~var ~enabled:always_enabled ();
    let r = the_run () in
    if m.owner <> r.current then
      misuse "unlock of a mutex not held by the calling thread";
    record r (Interp.Ev_sync { tid = r.current; var });
    m.owner <- -1

  let with_lock m f =
    lock m;
    match f () with
    | v ->
      unlock m;
      v
    | exception e ->
      unlock m;
      raise e
end

module Event = struct
  type t = {
    eid : int;
    manual : bool;
    mutable signaled : bool;
  }

  let create ?(manual = false) ?(signaled = false) () =
    { eid = fresh_var (the_run ()); manual; signaled }

  let wait e =
    let var = Interp.Svar (e.eid, 0) in
    sched ~blocking:true ~var ~enabled:(fun () -> e.signaled) ();
    let r = the_run () in
    record r (Interp.Ev_sync { tid = r.current; var });
    if not e.manual then e.signaled <- false

  let set e =
    let var = Interp.Svar (e.eid, 0) in
    sched ~var ~enabled:always_enabled ();
    let r = the_run () in
    record r (Interp.Ev_sync { tid = r.current; var });
    e.signaled <- true

  let reset e =
    let var = Interp.Svar (e.eid, 0) in
    sched ~var ~enabled:always_enabled ();
    let r = the_run () in
    record r (Interp.Ev_sync { tid = r.current; var });
    e.signaled <- false
end

module Semaphore = struct
  type t = {
    sid : int;
    mutable count : int;
  }

  let create count =
    if count < 0 then misuse "semaphore count must be non-negative";
    { sid = fresh_var (the_run ()); count }

  let acquire s =
    let var = Interp.Svar (s.sid, 0) in
    sched ~blocking:true ~var ~enabled:(fun () -> s.count > 0) ();
    let r = the_run () in
    record r (Interp.Ev_sync { tid = r.current; var });
    s.count <- s.count - 1

  let release s =
    let var = Interp.Svar (s.sid, 0) in
    sched ~var ~enabled:always_enabled ();
    let r = the_run () in
    record r (Interp.Ev_sync { tid = r.current; var });
    s.count <- s.count + 1
end

module Shared = struct
  type 'a t = {
    vid : int;
    mutable v : 'a;
  }

  let make v = { vid = fresh_var (the_run ()); v }

  let touch c =
    let var = Interp.Gvar (c.vid, 0) in
    sched ~var ~enabled:always_enabled ();
    let r = the_run () in
    record r (Interp.Ev_sync { tid = r.current; var })

  let get c =
    touch c;
    c.v

  let set c v =
    touch c;
    c.v <- v

  let cas c ~expect ~update =
    touch c;
    if c.v = expect then begin
      c.v <- update;
      true
    end
    else false

  let cas_phys c ~expect ~update =
    touch c;
    if c.v == expect then begin
      c.v <- update;
      true
    end
    else false

  let fetch_add c d =
    touch c;
    let old = c.v in
    c.v <- old + d;
    old
end

module Data = struct
  type 'a t = {
    did : int;
    mutable v : 'a;
  }

  let make v = { did = fresh_var (the_run ()); v }

  let get c =
    let r = the_run () in
    record r
      (Interp.Ev_data { tid = r.current; var = Interp.Gvar (c.did, 0); write = false });
    c.v

  let set c v =
    let r = the_run () in
    record r
      (Interp.Ev_data { tid = r.current; var = Interp.Gvar (c.did, 0); write = true });
    c.v <- v
end

(* --- the execution machinery -------------------------------------------- *)

module Run = struct
  type t = run_t

  let create body =
    {
      threads = [| { st = T_not_started body; yielded = false } |];
      nthreads = 1;
      current = -1;
      next_var = 0;
      events = [];
      failure = None;
      last_blocking = false;
    }

  let thread_enabled (th : thread_rec) =
    match th.st with
    | T_not_started _ -> true
    | T_parked (pt, _) -> pt.enabled ()
    | T_done -> false

  let enabled_raw r =
    if r.failure <> None then []
    else begin
      let res = ref [] in
      for i = r.nthreads - 1 downto 0 do
        if thread_enabled r.threads.(i) then res := i :: !res
      done;
      !res
    end

  let enabled r =
    let raw = enabled_raw r in
    let awake = List.filter (fun i -> not r.threads.(i).yielded) raw in
    if awake = [] then raw else awake

  type status =
    | Running
    | Terminated
    | Deadlock of int list
    | Failed of string

  let rec any_enabled r i =
    i < r.nthreads && (thread_enabled r.threads.(i) || any_enabled r (i + 1))

  (* Called before and after every step, so it answers [Running] without
     allocating. *)
  let status r =
    match r.failure with
    | Some msg -> Failed msg
    | None ->
      if any_enabled r 0 then Running
      else begin
        let blocked = ref [] in
        for i = r.nthreads - 1 downto 0 do
          match r.threads.(i).st with
          | T_done -> ()
          | T_not_started _ | T_parked _ -> blocked := i :: !blocked
        done;
        if !blocked = [] then Terminated else Deadlock !blocked
      end

  (* Start thread [t]'s body under the scheduling handler.  The handler is
     installed once per thread; resuming a parked continuation re-enters
     it automatically (deep handlers), so parked threads are resumed with
     a bare [continue].  Control returns to the caller when the thread
     parks again, finishes, or raises. *)
  let start_thread r t body =
    let th = r.threads.(t) in
    let handler =
      {
        Effect.Deep.retc = (fun () -> th.st <- T_done);
        exnc =
          (fun e ->
            th.st <- T_done;
            if r.failure = None then
              r.failure <-
                Some
                  (match e with
                  | Failure msg -> msg
                  | Assert_failure (file, line, _) ->
                    Printf.sprintf "assertion failure at %s:%d" file line
                  | e -> Printexc.to_string e));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | E_sched pt ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  th.st <- T_parked (pt, k))
            | _ -> None);
      }
    in
    Effect.Deep.match_with body () handler

  let step r t =
    (match status r with
    | Running -> ()
    | Terminated | Deadlock _ | Failed _ ->
      invalid_arg "Chess.Run.step: execution is not running");
    let th = r.threads.(t) in
    if not (thread_enabled th) then invalid_arg "Chess.Run.step: thread not enabled";
    (* yield flags last exactly one scheduling decision *)
    for i = 0 to r.nthreads - 1 do
      r.threads.(i).yielded <- false
    done;
    r.current <- t;
    r.events <- [];
    let saved = !active in
    active := Some r;
    let was_yield, blocking =
      match th.st with
      | T_not_started body ->
        r.last_blocking <- false;
        start_thread r t body;
        (false, false)
      | T_parked (pt, k) ->
        th.st <- T_done (* placeholder; the handler reparks or finishes *);
        Effect.Deep.continue k ();
        (pt.is_yield, pt.blocking)
      | T_done -> assert false
    in
    active := saved;
    if was_yield then th.yielded <- true;
    (List.rev r.events, blocking)

  let thread_count r = r.nthreads

  let yielded r tid = r.threads.(tid).yielded
end

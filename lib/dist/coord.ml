module Json = Icb_obs.Json
module Telemetry = Icb_obs.Telemetry
module Metrics = Icb_obs.Metrics
module Http = Icb_obs.Http
module Collector = Icb_search.Collector
module Strategy = Icb_search.Strategy
module Driver = Icb_search.Driver
module Explore = Icb_search.Explore
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult

(* --- state ---------------------------------------------------------------- *)

type lease = { l_token : int; l_batch : int; l_conn : int; l_issued : float }

(* One round of the search, while it is being served.  [rs_items.(b)] is
   batch [b]'s work slice; a batch is always in exactly one place —
   pending, leased (at most one live lease), or completed
   ([rs_reports.(b) = Some _]) — which is what makes absorption
   at-most-once. *)
type round_state = {
  rs_round : int;
  rs_tag : string;
  rs_params : (string * string) list;
  rs_items : (int list * int) list array;
  rs_reports : (Proto.report * Collector.snapshot) option array;
  mutable rs_pending : int list; (* sorted batch ids *)
  mutable rs_leases : lease list;
  mutable rs_completed : int;
}

(* Run totals for the limit test and [/status], batch-granular: the
   master's counters at the round's start plus every batch absorbed
   since, mirroring the domain pool's per-execution hook. *)
type totals = {
  mutable executions : int;
  mutable states : int;
  mutable steps : int;
  mutable bugs : int;
}

type phase = Starting | Serving | Finished

type mx = {
  mx_workers : Metrics.gauge;
  mx_leased : Metrics.counter;
  mx_completed : Metrics.counter;
  mx_reissued : Metrics.counter;
  mx_stale : Metrics.counter;
  mx_rounds : Metrics.counter;
}

type t = {
  sock : Unix.file_descr;
  sock_port : int;
  wake_addr : Unix.sockaddr; (* self-connect target to unblock accept *)
  m : Mutex.t;
  cv : Condition.t;
  tel : Telemetry.t;
  lease_timeout : float;
  batch_size : int;
  mx : mx;
  mutable phase : phase;
  mutable strat_name : string;
  mutable job : Proto.job option; (* [j_worker] re-stamped per hello *)
  mutable round : round_state option;
  mutable limits : Collector.options; (* the run's, once published *)
  totals : totals;
  mutable stop_requested : Sresult.stop_reason option;
  mutable ck_wanted : bool;
  mutable ck_every : int;
  mutable ck_last : int; (* executions at the last checkpoint *)
  mutable next_worker : int;
  mutable next_token : int;
  mutable workers : int;
  mutable next_conn : int;
  mutable closed : bool;
  mutable acceptor : Thread.t option;
}

let port t = t.sock_port
let telemetry t = t.tel

(* Metric updates run while holding [t.m]; the registry itself is only
   safe under the telemetry consumer lock, so the order is always
   [t.m] then [Telemetry.locked] — the HTTP handlers take one or the
   other, never both. *)
let m_inc t c = Telemetry.locked t.tel (fun () -> Metrics.inc c 1.)
let m_add t c n = Telemetry.locked t.tel (fun () -> Metrics.inc c (float_of_int n))
let m_set t g v = Telemetry.locked t.tel (fun () -> Metrics.set g (float_of_int v))

(* --- lease bookkeeping (all under [t.m]) ---------------------------------- *)

let requeue t rs batches =
  if batches <> [] then begin
    rs.rs_pending <- List.sort compare (batches @ rs.rs_pending);
    m_add t t.mx.mx_reissued (List.length batches)
  end

let void_conn_leases t conn =
  match t.round with
  | None -> ()
  | Some rs ->
    let mine, rest = List.partition (fun l -> l.l_conn = conn) rs.rs_leases in
    rs.rs_leases <- rest;
    requeue t rs (List.map (fun l -> l.l_batch) mine)

let reclaim_expired t rs =
  let now = Unix.gettimeofday () in
  let dead, live =
    List.partition (fun l -> now -. l.l_issued > t.lease_timeout) rs.rs_leases
  in
  rs.rs_leases <- live;
  requeue t rs (List.map (fun l -> l.l_batch) dead)

let request_stop t r =
  if t.stop_requested = None then t.stop_requested <- Some r

let reset_totals t master =
  t.totals.executions <- Collector.executions master;
  t.totals.states <- Collector.seen_states master;
  t.totals.steps <- Collector.total_steps master;
  t.totals.bugs <- Collector.bug_count master

let check_limits t snap =
  let n = t.totals in
  n.executions <- n.executions + Collector.snapshot_executions snap;
  n.states <- n.states + Collector.snapshot_states snap;
  n.steps <- n.steps + Collector.snapshot_steps snap;
  n.bugs <- n.bugs + List.length (Collector.snapshot_bugs snap);
  (match
     Driver.limit_hit t.limits ~executions:n.executions ~states:n.states
       ~steps:n.steps ~bugs:n.bugs
   with
  | Some r -> request_stop t r
  | None -> ());
  if n.executions - t.ck_last >= t.ck_every then t.ck_wanted <- true

(* --- protocol handling ---------------------------------------------------- *)

(* A report without events carries its batch's metric deltas instead;
   they enter the registry as the batch is absorbed, so [/metrics] moves
   per batch.  Once a stop is requested nothing more is absorbed: a
   prefetched batch cannot slip past a limit, whatever the timing. *)
let absorb t ~lease ~(report : Proto.report) =
  let stale () =
    m_inc t t.mx.mx_stale;
    Proto.Stale
  in
  let merge_metrics snap =
    match report.Proto.r_metrics with
    | None -> Ok ()
    | Some values ->
      Telemetry.merge_deltas t.tel values
        ~bugs:
          (List.map
             (fun (b : Sresult.bug) -> b.Sresult.key)
             (Collector.snapshot_bugs snap))
  in
  match t.round with
  | Some rs when t.phase = Serving && t.stop_requested = None -> (
    match List.find_opt (fun l -> l.l_token = lease) rs.rs_leases with
    | None -> stale ()
    | Some l -> (
      match Collector.snapshot_of_json report.Proto.r_snapshot with
      | Error _ -> stale ()
      | Ok snap -> (
        match merge_metrics snap with
        | Error _ -> stale ()
        | Ok () ->
          rs.rs_leases <-
            List.filter (fun x -> x.l_token <> lease) rs.rs_leases;
          rs.rs_reports.(l.l_batch) <- Some (report, snap);
          rs.rs_completed <- rs.rs_completed + 1;
          m_inc t t.mx.mx_completed;
          check_limits t snap;
          Condition.broadcast t.cv;
          Proto.Accepted)))
  | _ -> stale ()

let holds_lease rs conn = List.exists (fun l -> l.l_conn = conn) rs.rs_leases

(* A request is answered with a batch as soon as one is pending.  With
   none pending, a connection holding no lease parks on [t.cv] until a
   batch is pending or the run ends.  One that still holds a lease is
   told to wait at once instead: its handler is sequential, so parking
   would queue the connection's own result — and maybe the round's last
   batch — behind the parked request. *)
let rec lease_for t ~conn =
  match t.round with
  | Some rs when t.phase = Serving && t.stop_requested = None -> (
    reclaim_expired t rs;
    match rs.rs_pending with
    | b :: rest ->
      rs.rs_pending <- rest;
      let token = t.next_token in
      t.next_token <- t.next_token + 1;
      rs.rs_leases <-
        {
          l_token = token;
          l_batch = b;
          l_conn = conn;
          l_issued = Unix.gettimeofday ();
        }
        :: rs.rs_leases;
      m_inc t t.mx.mx_leased;
      Proto.Batch
        {
          Proto.b_lease = token;
          b_id = b;
          b_tag = rs.rs_tag;
          b_params = rs.rs_params;
          b_round = rs.rs_round;
          b_items = rs.rs_items.(b);
          b_pending = List.length rest;
        }
    | [] -> if holds_lease rs conn then Proto.Wait { ms = 0 } else park t ~conn)
  | Some rs when holds_lease rs conn -> Proto.Wait { ms = 0 }
  | _ -> if t.phase = Finished then Proto.Done else park t ~conn

and park t ~conn =
  Condition.wait t.cv t.m;
  lease_for t ~conn

(* [greeted] is per connection: the worker gauge counts connections that
   completed a hello, and is decremented when they drop. *)
let reply_to t ~conn ~greeted msg =
  match msg with
  | Proto.Hello -> (
    match t.job with
    | None -> Proto.Wait { ms = 50 }
    | Some job ->
      if not !greeted then begin
        greeted := true;
        t.workers <- t.workers + 1;
        m_set t t.mx.mx_workers t.workers
      end;
      let wid = t.next_worker in
      t.next_worker <- t.next_worker + 1;
      Proto.Job { job with Proto.j_worker = wid })
  | Proto.Request -> lease_for t ~conn
  | Proto.Result { lease; report } -> absorb t ~lease ~report

let serve_protocol t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  let conn = Mutex.protect t.m (fun () ->
      let c = t.next_conn in
      t.next_conn <- t.next_conn + 1;
      c)
  in
  let greeted = ref false in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.m (fun () ->
          void_conn_leases t conn;
          if !greeted then begin
            t.workers <- t.workers - 1;
            m_set t t.mx.mx_workers t.workers
          end;
          Condition.broadcast t.cv))
    (fun () ->
      let rec loop () =
        match Proto.recv ic with
        | Error (`Closed | `Malformed _) -> ()
        | Ok j -> (
          match Proto.c2s_of_json j with
          | Error _ -> ()
          | Ok msg ->
            let reply =
              Mutex.protect t.m (fun () -> reply_to t ~conn ~greeted msg)
            in
            (match Proto.send oc (Proto.s2c_to_json reply) with
            | () -> loop ()
            | exception Sys_error _ -> ()))
      in
      loop ())

(* --- HTTP handling -------------------------------------------------------- *)

let phase_string = function
  | Starting -> "starting"
  | Serving -> "serving"
  | Finished -> "finished"

let status_json t =
  Mutex.protect t.m (fun () ->
      let batches =
        match t.round with
        | None -> []
        | Some rs ->
          [
            ( "batches",
              Json.Obj
                [
                  ("total", Json.Int (Array.length rs.rs_items));
                  ("completed", Json.Int rs.rs_completed);
                  ("pending", Json.Int (List.length rs.rs_pending));
                  ("leased", Json.Int (List.length rs.rs_leases));
                ] );
            ("round", Json.Int rs.rs_round);
          ]
      in
      let counters =
        match t.job with
        | None -> []
        | Some _ ->
          [
            ("executions", Json.Int t.totals.executions);
            ("total_steps", Json.Int t.totals.steps);
            ("bugs", Json.Int t.totals.bugs);
          ]
      in
      Json.Obj
        ([
           ("phase", Json.String (phase_string t.phase));
           ("strategy", Json.String t.strat_name);
           ("port", Json.Int t.sock_port);
           ("workers", Json.Int t.workers);
           ( "stop_reason",
             match t.stop_requested with
             | None -> Json.Null
             | Some r -> Json.String (Sresult.stop_reason_string r) );
         ]
        @ batches @ counters))

let serve_http t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  match Http.read_request ic with
  | Error _ -> ()
  | Ok { Http.meth; path } -> (
    let head = meth = "HEAD" in
    match (meth, path) with
    | ("GET" | "HEAD"), "/metrics" ->
      let body =
        Telemetry.locked t.tel (fun () ->
            Metrics.to_prometheus (Telemetry.metrics t.tel))
      in
      Http.respond oc ~head ~content_type:"text/plain; version=0.0.4" body
    | ("GET" | "HEAD"), "/status" ->
      Http.respond oc ~head ~content_type:"application/json"
        (Json.to_string (status_json t))
    | ("GET" | "HEAD"), _ -> Http.not_found ~head oc
    | _ -> Http.method_not_allowed oc)

(* --- accept loop ---------------------------------------------------------- *)

(* The two protocols share the port.  Within [sniff_deadline] of being
   accepted, a connection must show either {!Proto.magic} or a whole
   HTTP request head of at most [max_head] bytes; otherwise it is
   closed, so a peer that sends little or nothing holds neither a thread
   nor memory.  Both checks peek, so the chosen reader still sees every
   byte.  A protocol connection has no read deadline after this: a
   worker is legitimately silent for as long as a batch runs. *)
let sniff_deadline = 3.0
let max_head = 8192

(* whether the first [n] bytes of [buf] hold a blank line *)
let head_complete buf n =
  let s = Bytes.sub_string buf 0 n in
  let rec from i =
    match String.index_from_opt s i '\n' with
    | None -> false
    | Some j ->
      (j + 1 < n && s.[j + 1] = '\n')
      || (j + 2 < n && s.[j + 1] = '\r' && s.[j + 2] = '\n')
      || from (j + 1)
  in
  from 0

let sniff fd =
  let buf = Bytes.create max_head in
  let until = Unix.gettimeofday () +. sniff_deadline in
  let magic = String.length Proto.magic in
  let rec go () =
    let left = until -. Unix.gettimeofday () in
    match
      if left <= 0. then 0
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> 0
        | _ -> Unix.recv fd buf 0 max_head [ Unix.MSG_PEEK ]
    with
    | 0 -> None
    | n when n >= magic && Bytes.sub_string buf 0 magic = Proto.magic ->
      Some `Protocol
    | n when head_complete buf n -> Some `Http
    | n when n >= max_head -> None
    | _ ->
      Unix.sleepf 0.002;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> None
  in
  go ()

let handle_conn t fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match sniff fd with
      | Some `Protocol -> serve_protocol t fd
      | Some `Http -> serve_http t fd
      | None -> ())

let acceptor t () =
  let rec loop () =
    match Unix.accept t.sock with
    | fd, _ ->
      if Mutex.protect t.m (fun () -> t.closed) then begin
        (try Unix.close fd with Unix.Unix_error _ -> ());
        try Unix.close t.sock with Unix.Unix_error _ -> ()
      end
      else begin
        ignore (Thread.create (fun () -> handle_conn t fd) ());
        loop ()
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> (
      try Unix.close t.sock with Unix.Unix_error _ -> ())
  in
  loop ()

(* --- construction --------------------------------------------------------- *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      invalid_arg (Printf.sprintf "Coord.create: cannot resolve host %s" host)
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found ->
      invalid_arg (Printf.sprintf "Coord.create: cannot resolve host %s" host))

let create ?(host = "127.0.0.1") ?(port = 0) ?(lease_timeout = 30.)
    ?(batch_size = 32) ?telemetry () =
  if batch_size < 1 then invalid_arg "Coord.create: batch_size must be >= 1";
  if lease_timeout <= 0. then
    invalid_arg "Coord.create: lease_timeout must be positive";
  let tel =
    match telemetry with Some t -> t | None -> Telemetry.create ()
  in
  Telemetry.track_metrics tel;
  let mx =
    Telemetry.locked tel (fun () ->
        let m = Telemetry.metrics tel in
        {
          mx_workers =
            Metrics.gauge m ~help:"Connected distributed workers"
              "icb_dist_workers";
          mx_leased =
            Metrics.counter m ~help:"Work-item batches leased to workers"
              "icb_dist_batches_leased";
          mx_completed =
            Metrics.counter m ~help:"Batches absorbed into the master"
              "icb_dist_batches_completed";
          mx_reissued =
            Metrics.counter m
              ~help:"Leases voided (expiry or disconnect) and re-queued"
              "icb_dist_leases_reissued";
          mx_stale =
            Metrics.counter m ~help:"Reports rejected for a voided lease"
              "icb_dist_stale_reports";
          mx_rounds =
            Metrics.counter m ~help:"Completed distributed rounds"
              "icb_dist_rounds";
        })
  in
  let addr = resolve_host host in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let sock_port =
    try
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (addr, port));
      Unix.listen sock 64;
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    with e ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      raise e
  in
  let wake_addr =
    let a =
      if addr = Unix.inet_addr_any then Unix.inet_addr_loopback else addr
    in
    Unix.ADDR_INET (a, sock_port)
  in
  let t =
    {
      sock;
      sock_port;
      wake_addr;
      m = Mutex.create ();
      cv = Condition.create ();
      tel;
      lease_timeout;
      batch_size;
      mx;
      phase = Starting;
      strat_name = "";
      job = None;
      round = None;
      limits = Collector.default_options;
      totals = { executions = 0; states = 0; steps = 0; bugs = 0 };
      stop_requested = None;
      ck_wanted = false;
      ck_every = max_int;
      ck_last = 0;
      next_worker = 0;
      next_token = 0;
      workers = 0;
      next_conn = 0;
      closed = false;
      acceptor = None;
    }
  in
  t.acceptor <- Some (Thread.create (acceptor t) ());
  t

let shutdown t =
  let was_closed = Mutex.protect t.m (fun () ->
      let c = t.closed in
      t.closed <- true;
      if t.phase <> Serving then t.phase <- Finished;
      Condition.broadcast t.cv;
      c)
  in
  if not was_closed then begin
    (* unblock [accept]: the acceptor sees [closed] and closes the
       listening socket itself *)
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect fd t.wake_addr with Unix.Unix_error _ -> ());
       try Unix.close fd with Unix.Unix_error _ -> ()
     with Unix.Unix_error _ -> ());
    match t.acceptor with None -> () | Some th -> Thread.join th
  end

(* --- the lease server: a round runner ------------------------------------- *)

(* The barrier and the mid-round save both read a round's reports in
   batch-id order, like the in-process barrier, and both stay linear in
   the round's batch count: the coordinator's threads share one runtime
   lock, so every connection waits while the round loop computes. *)

let absorbed reports = List.filter_map (Option.map fst) (Array.to_list reports)
let snapshots reports = List.filter_map (Option.map snd) (Array.to_list reports)

let reported_params completed =
  List.map (fun (r : Proto.report) -> r.Proto.r_params) completed

(* The next round: the carried items plus every absorbed batch's
   deferred ones, sorted. *)
let next_round carry completed =
  Driver.sorted_items
    (carry
    @ List.concat_map
        (fun (rep : Proto.report) ->
          List.map Driver.of_prefix rep.Proto.r_deferred)
        completed)

(* The work items of the batches not absorbed yet. *)
let unabsorbed batches reports =
  List.concat
    (List.filteri
       (fun b _ -> Option.is_none reports.(b))
       (Array.to_list batches))

(* [l] cut into consecutive slices of at most [n] *)
let chunk n l =
  let a = Array.of_list l in
  let len = Array.length a in
  Array.init
    ((len + n - 1) / n)
    (fun b -> Array.to_list (Array.sub a (b * n) (min n (len - (b * n)))))

(* One round over the network: cut the sorted frontier into contiguous
   batches (so a worker's consecutive batches share schedule prefixes
   and hit its replay cache), lease them out, write mid-round
   checkpoints when due, and at the barrier merge the reports in batch-id
   order. *)
let serve_round (type s w) t ses
    (module S : Strategy.S with type state = s and type wstate = w)
    ~(wstates : w array) work ~carry =
  let master = ses.Driver.master in
  let work = Driver.sorted_items work in
  let prefixes = Driver.strip_items work in
  let f0 = S.to_prefixes ~wstates ~work:prefixes ~next:[] in
  let sent = f0.Checkpoint.v3_params in
  let round_no = f0.Checkpoint.v3_round in
  let arr = chunk t.batch_size prefixes in
  let nb = Array.length arr in
  let round_start = Collector.snapshot master in
  Mutex.protect t.m (fun () ->
      reset_totals t master;
      t.ck_wanted <- false;
      t.round <-
        Some
          {
            rs_round = round_no;
            rs_tag = S.tag;
            rs_params = sent;
            rs_items = arr;
            rs_reports = Array.make nb None;
            rs_pending = List.init nb Fun.id;
            rs_leases = [];
            rs_completed = 0;
          };
      t.phase <- Serving;
      Condition.broadcast t.cv);
  (* fold the workers' round-local params (truncation counts, sealing
     counts, PCT's step estimate) as if one [to_prefixes] had seen the
     union of their worker states *)
  let params completed =
    Strategy.merge_params ~sent ~reported:(reported_params completed)
  in
  (* Mid-round checkpoint, over [reports], a capture taken under the
     lock; it runs in this thread with [t.m] released. *)
  let mid_save reports =
    let completed = absorbed reports in
    Driver.save_partial ses ~round_start (snapshots reports) (fun () ->
        {
          Checkpoint.v3_tag = S.tag;
          v3_params = params completed;
          v3_round = round_no;
          v3_work = unabsorbed arr reports;
          v3_next = Driver.strip_items (next_round carry completed);
        })
  in
  (* A checkpoint's capture moves [ck_last] at once: reports absorbed
     while the save runs count toward the next one, not this one. *)
  let rec wait () =
    let what = Mutex.protect t.m (fun () ->
        let rs = Option.get t.round in
        if rs.rs_completed >= nb || t.stop_requested <> None then `Barrier
        else if t.ck_wanted then begin
          t.ck_wanted <- false;
          t.ck_last <- t.totals.executions;
          `Ckpt (Array.copy rs.rs_reports)
        end
        else begin
          Condition.wait t.cv t.m;
          `Again
        end)
    in
    match what with
    | `Barrier -> ()
    | `Ckpt reports ->
      mid_save reports;
      wait ()
    | `Again -> wait ()
  in
  wait ();
  (* retire the round before merging: late reports turn stale *)
  let rs, stop = Mutex.protect t.m (fun () ->
      let rs = Option.get t.round in
      t.round <- None;
      t.phase <- Starting;
      (rs, t.stop_requested))
  in
  Driver.merge master (snapshots rs.rs_reports);
  (* telemetry: replay each batch's buffered events in batch-id order —
     the merged trace is deterministic up to timestamps — then stamp the
     batch totals *)
  Array.iteri
    (fun b r ->
      match r with
      | None -> ()
      | Some ((rep : Proto.report), sn) ->
        Telemetry.inject t.tel
          (List.filter_map
             (fun ej -> Result.to_option (Icb_obs.Event.of_json ej))
             rep.Proto.r_events);
        Driver.worker_stats ses.Driver.emit b sn)
    rs.rs_reports;
  let completed = absorbed rs.rs_reports in
  let next = next_round carry completed in
  (* the non-empty work list keeps the randomized strategies from
     minting *)
  if completed <> [] then
    ignore
      (S.of_prefixes master
         {
           Checkpoint.v3_tag = S.tag;
           v3_params = params completed;
           v3_round = round_no;
           v3_work = prefixes;
           v3_next = [];
         });
  m_inc t t.mx.mx_rounds;
  Driver.merged master stop
    ~work:(fun () -> unabsorbed arr rs.rs_reports)
    ~next

let run (type s) t (module E : Icb_search.Engine.S with type state = s)
    ?options ?checkpoint_out ?checkpoint_every ?(checkpoint_meta = [])
    ?resume_from ?env ?(cache = true) strategy : Sresult.t =
  let (module S : Strategy.S with type state = s) =
    Explore.instantiate ?env (module E) strategy
  in
  if not (S.shardable && S.checkpointable) then
    invalid_arg
      (Printf.sprintf
         "Coord.run: the %s frontier does not distribute (it must shard \
          and serialize; strategies that do: icb, dfs, db:N, idfs:N, \
          random, pct:N, vb:N, tb:N, icb-vb:N)"
         S.name);
  let ses =
    Driver.session (module E) (module S) ?options ?checkpoint_out
      ?checkpoint_every ~checkpoint_meta ?resume_from ~telemetry:t.tel
      ~domains:0 ()
  in
  let options = ses.Driver.options in
  (* publish the job: from here on, hellos are answered *)
  Mutex.protect t.m (fun () ->
      if t.closed then invalid_arg "Coord.run: the coordinator was shut down";
      if t.job <> None then
        invalid_arg "Coord.run: the coordinator already ran a search";
      t.strat_name <- S.name;
      t.job <-
        Some
          {
            Proto.j_meta = checkpoint_meta;
            j_root_sig = Lazy.force ses.Driver.fingerprint;
            j_deadlock_is_error = options.Collector.deadlock_is_error;
            j_terminal_states_only = options.Collector.terminal_states_only;
            j_cache = cache;
            j_events = Telemetry.streams_events t.tel;
            j_worker = 0;
          };
      t.limits <- options;
      reset_totals t ses.Driver.master;
      t.ck_every <-
        (match ses.Driver.ckpt with
        | Some c -> c.Icb_search.Search_core.ck_every
        | None -> max_int);
      t.ck_last <- Collector.executions ses.Driver.master);
  (* a ticker so a deadline fires and leases expire even while no worker
     is talking to us; it also wakes the round loop *)
  let ticker =
    Thread.create
      (fun () ->
        let rec tick () =
          Unix.sleepf 0.05;
          let live = Mutex.protect t.m (fun () ->
              (match (options.Collector.deadline, t.stop_requested) with
              | Some d, None when Unix.gettimeofday () >= d ->
                request_stop t Sresult.Deadline_exceeded
              | _ -> ());
              (match t.round with
              | Some rs when t.phase = Serving -> reclaim_expired t rs
              | _ -> ());
              Condition.broadcast t.cv;
              t.phase <> Finished)
          in
          if live then tick ()
        in
        tick ())
      ()
  in
  let wstates = [| S.wstate () |] in
  Driver.rounds ses (module E) (module S) ~wstates
    (serve_round t ses (module S) ~wstates);
  Mutex.protect t.m (fun () ->
      t.phase <- Finished;
      t.round <- None;
      Condition.broadcast t.cv);
  Thread.join ticker;
  (* Give connected workers a moment to poll once more and receive
     [Done], so their processes exit cleanly before the caller tears the
     port down; a worker that lingers past the grace is simply dropped. *)
  let grace = Unix.gettimeofday () +. 5.0 in
  let rec drain () =
    if Mutex.protect t.m (fun () -> t.workers) > 0
       && Unix.gettimeofday () < grace
    then begin
      Unix.sleepf 0.02;
      drain ()
    end
  in
  drain ();
  Driver.finish ses

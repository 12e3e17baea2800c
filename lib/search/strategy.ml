(* The first-class strategy interface: every search strategy — ICB, the
   DFS family, sleep sets, PCT, most-enabled, random walk — is a module
   of type [S], and one generic driver ([Driver.run]) executes any of
   them, serially or across OCaml domains, with checkpoint/resume.

   The core idea is an explicit frontier of *items*.  An item is a
   replayable schedule prefix plus a small payload — the same
   representation checkpoints and the parallel executor have always used
   for ICB work items — optionally carrying the live engine state so the
   in-process fast path skips the replay.  The prefix keeps the order it
   was made in ({!prefix}): an item born of a state shares that state's
   trail, so a deferral copies no schedule.  A strategy seeds the frontier
   ([roots]), consumes one item at a time ([expand], pushing follow-up
   items into the current round or deferring them to the next), and
   decides at each round barrier whether to stop or continue
   ([after_round]).  Serialization is [to_prefixes]/[of_prefixes]: the
   frontier as plain (schedule prefix, payload) pairs inside a
   {!Checkpoint.v3} record.

   Rounds are the generalization of ICB's context bounds: ICB defers
   preempting branches to the next round, iterative deepening starts a
   fresh root per depth bound, randomized strategies hand out batches of
   walk indices.  Single-phase strategies (plain DFS, most-enabled) run
   as one round.  The driver guarantees a barrier between rounds — in
   parallel mode that is the determinism barrier where worker results
   merge. *)

(* A replayable schedule prefix, in the order it was made in: the trail
   of the state an item was born at (newest first, {!Engine.S.trail},
   shared with that state and its siblings), or a schedule read from a
   checkpoint or the wire (oldest first).  A trail is turned oldest first
   only to leave the process or to be replayed. *)
type prefix =
  | Trail of int list
  | Sched of int list

let schedule_of = function Trail t -> List.rev t | Sched s -> s

let prefix_length = function Trail l | Sched l -> List.length l

(* Two trails in [compare]'s order on their schedules, without reversing
   either: cut the longer to the shorter's length; then the oldest step
   where they differ decides, else the shorter is first.  The walk stops
   at a tail the two share. *)
let compare_trails a b =
  let la = List.length a and lb = List.length b in
  let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l) in
  let rec go c a b =
    match (a, b) with
    | x :: a', y :: b' when a != b ->
      go (if x = y then c else Int.compare x y) a' b'
    | _ -> if c = 0 then Int.compare la lb else c
  in
  go 0 (drop (la - lb) a) (drop (lb - la) b)

type 's item = {
  i_sched : prefix;
  i_payload : int;     (* tid to run, [visit], or a walk index *)
  i_state : 's option;
      (* the prefix's state, when already materialized; never serialized.
         Every hand-off goes through the worker's
         [Search_core.materializer], which strips it when the replay cache
         is off, and when the item is deferred or leaves its domain unless
         the engine has the snapshot capability *)
  i_witness : int;
      (* [no_witness], or the enabled set of the state the materializer
         stripped, which rebuilding the prefix must reach again; never
         serialized *)
}

(* Payload marker: don't step anywhere — expand the replayed state
   itself.  Used for DFS-family nodes and search roots. *)
let visit = -1

(* The witness of an item whose state was never dropped: it still
   carries it, or never had one (a prefix resumed from a checkpoint or
   leased over the wire).  Witnesses are non-negative. *)
let no_witness = -1

(* The serializable form: (schedule oldest first, payload). *)
let prefix_of it = (schedule_of it.i_sched, it.i_payload)

(* [compare] on [prefix_of], without reversing two trails. *)
let compare_items a b =
  let c =
    match (a.i_sched, b.i_sched) with
    | Trail x, Trail y -> compare_trails x y
    | x, y -> List.compare Int.compare (schedule_of x) (schedule_of y)
  in
  if c <> 0 then c else Int.compare a.i_payload b.i_payload

(* --- shared-variable metadata ------------------------------------------- *)

(* The variable-bounding strategies need to know which shared variables a
   model has and how hot each one is.  Engines do not expose that — their
   states only surface variables through step footprints — so the caller
   supplies it out of band as a small context record: [Icb.run] derives
   it statically from the compiled program ([Varmeta]), the CHESS engine
   from one profiling execution of the test body.  Strategies that do not
   bound variables ignore it entirely. *)

type svar = {
  sv_key : string;   (* stable encoding of the variable, see [key_of_var] *)
  sv_name : string;  (* human name for reports and docs *)
  sv_weight : int;   (* ranking weight; higher = hotter *)
}

type env = { env_svars : svar list }  (* ranked, heaviest first *)

let empty_env = { env_svars = [] }

(* Element-index-insensitive so an array is one variable and the heap's
   object-wide [Hcell (addr, -1)] pseudo-variable matches its cells. *)
let key_of_var : Icb_machine.Interp.var_id -> string = function
  | Icb_machine.Interp.Gvar (gid, _) -> Printf.sprintf "g%d" gid
  | Icb_machine.Interp.Svar (sid, _) -> Printf.sprintf "s%d" sid
  | Icb_machine.Interp.Hcell (addr, _) -> Printf.sprintf "h%d" addr

let env_of_prog prog =
  {
    env_svars =
      List.map
        (fun (v : Icb_machine.Varmeta.svar) ->
          {
            sv_key = key_of_var v.Icb_machine.Varmeta.v_var;
            sv_name = v.Icb_machine.Varmeta.v_name;
            sv_weight = v.Icb_machine.Varmeta.v_count;
          })
        (Icb_machine.Varmeta.ranked prog);
  }

(* What [expand] may do, wired up by the driver per worker. *)
type 's ctx = {
  c_col : Collector.t;  (* this worker's collector *)
  c_push : 's item -> unit;
      (* more work for the *current* round: it runs next on this
         worker, newest first *)
  c_defer : 's item -> unit;  (* work for the *next* round *)
  c_materialize : 's item -> 's option;
      (* the item's state: carried live, or its prefix replayed.  [None]
         means the prefix no longer replays and the failure was already
         contained as a bug (for a resumed prefix the serial driver
         raises [Invalid_argument] instead of returning). *)
}

module type S = sig
  type state

  val name : string
  (** For {!Sresult.t.strategy}, e.g. ["icb:3"]. *)

  val tag : string
  (** Stable checkpoint tag, e.g. ["icb"]; see {!Checkpoint.v3}. *)

  val checkpointable : bool
  (** Whether the frontier serializes.  [false] (sleep-set DFS: the sleep
      sets are footprint closures of the path) makes the driver reject
      [checkpoint_out]/[resume_from] up front. *)

  val shardable : bool
  (** Whether items may be distributed across domains.  [false]
      (most-enabled's global priority queue, sleep-set DFS) makes the
      driver reject [domains > 1]. *)

  type wstate
  (** Per-worker scratch state: cache tables, truncation counters,
      per-round maxima.  Created once per run and per worker; merged or
      reset by {!after_round}. *)

  val wstate : unit -> wstate

  val roots :
    (module Engine.S with type state = state) ->
    wstate ->
    Collector.t ->
    state item list
  (** Seed a fresh search (not called on resume): touch the initial
      state, finish trivially terminal programs, return round 0.  An
      empty list means the space is already exhausted.  The [wstate] is
      worker 0's (most-enabled seeds its cache with the root); shardable
      strategies must not depend on it. *)

  val expand :
    (module Engine.S with type state = state) ->
    wstate ->
    state ctx ->
    state item ->
    unit
  (** Process one item: materialize, step/walk, push or defer follow-ups,
      and record at most one execution via the ctx collector, as the
      item's last act.  Every runner applies the limits and takes its
      checkpoints between items, so an item runs to its end, unless it
      follows an execution (ICB, a walk) that {!Collector.overdue} makes
      it give up: its runner drops its deferrals and queues it again.
      sleep-dfs is the exception: its one item is the whole search, which
      cannot checkpoint, so it applies the limits itself
      ({!Collector.limit_reached}) before each step.  An exception
      escaping is a driver-level failure, engine crashes having already
      been contained by [Search_core.step_guarded]. *)

  val rank :
    ((module Engine.S with type state = state) -> state item -> int) option
  (** [None] but for most-enabled: every runner takes a round's items in
      order, an item's own follow-ups ([c_push]) next, newest first.
      [Some rank] makes the serial runner pop higher ranks first, ties in
      push order, from items that keep the state they arrive with
      ([i_state] set; a resumed item is materialized on insertion). *)

  val round : unit -> int
  (** The current round counter, for progress display and
      {!Checkpoint.v3.v3_round}. *)

  val after_round :
    Collector.t ->
    wstates:wstate array ->
    deferred:state item list ->
    [ `Round of state item list | `Complete | `Bounded ]
  (** The round barrier: every item of the round was processed (no limit
      fired), [deferred] holds the items handed to {!ctx.c_defer} (plus a
      resumed checkpoint's carried-over deferred items, first).  Merge or
      reset the worker states, record per-round coverage, and either
      continue with the next round's items, declare the space exhausted
      ([`Complete]), or stop at the strategy's own horizon ([`Bounded]:
      ICB's max bound, a depth bound that truncated paths, a randomized
      strategy's execution cap — [complete] stays false, with no stop
      reason). *)

  val to_prefixes :
    wstates:wstate array ->
    work:(int list * int) list ->
    next:(int list * int) list ->
    Checkpoint.v3
  (** Serialize the frontier: [work] and [next] are the stripped pending
      and deferred items.  [wstates] lets a strategy persist round-local
      progress that lives per worker (iterative DFS's truncation count,
      PCT's depth estimate); per-worker caches are deliberately not
      persisted. *)

  val of_prefixes :
    Collector.t -> Checkpoint.v3 -> (int list * int) list * (int list * int) list
  (** Restore internal state (round counter, parameters persisted by
      {!to_prefixes}) from a checkpoint frontier and return the (work,
      deferred-carry) prefixes to seed the driver with.  The collector is
      the restored master — strategies position themselves off its
      counters where the frontier alone is not enough (a v2 random-walk
      frontier carries no walk index). *)
end

(* --- distributed round-local parameter merge ----------------------------- *)

(* A distributed coordinator serializes the round's frontier once
   ([to_prefixes] -> [sent]) and each worker reports its slice back as
   another parameter list.  Configuration keys are identical everywhere;
   the only keys that move during a round are the round-local progress
   counters, and each has one merge law:

     "truncated", "sealed"  per-worker *additive* counters folded into the
                            serialized value on top of a shared base —
                            each report's delta against [sent] sums;
     "k"                    PCT's depth high-water mark — a maximum.

   Any other key keeps the coordinator's sent value, which also covers the
   nondeterministic timing params ([Checkpoint.elapsed_key]) the driver
   stamps after serialization.  The result is exactly the parameter list a
   single [to_prefixes] over the union of the workers' wstates would have
   produced, ready for [of_prefixes] on the coordinator's instance. *)
let merge_params ~sent ~reported =
  let int_of key l ~default =
    match List.assoc_opt key l with
    | Some s -> ( match int_of_string_opt s with Some i -> i | None -> default)
    | None -> default
  in
  List.map
    (fun (key, v) ->
      match key with
      | "truncated" | "sealed" ->
        let base = match int_of_string_opt v with Some i -> i | None -> 0 in
        let total =
          List.fold_left
            (fun acc r -> acc + (int_of key r ~default:base - base))
            base reported
        in
        (key, string_of_int total)
      | "k" ->
        let top =
          List.fold_left
            (fun acc r -> max acc (int_of key r ~default:0))
            (match int_of_string_opt v with Some i -> i | None -> 0)
            reported
        in
        (key, string_of_int top)
      | _ -> (key, v))
    sent

(* The concrete strategies, as first-class {!Strategy.S} instances.

   Each constructor takes the engine module as a type witness (the
   instance never steps it — the driver passes each worker's own engine to
   [roots]/[expand]/[rank]) and returns a fresh instance holding that
   run's round state, so instances are single-use.

   Faithfulness notes, enforced by the test suite:
   - ICB reproduces Algorithm 1 exactly: rounds run in item order,
     preempting branches deferred to the next round (= context bound),
     the optional (signature, tid) work-item cache per worker.
   - The DFS family runs one step per item, its follow-ups next, which
     replays the recursive implementation's event order exactly
     (step, touch, seen-check, recurse) — growth curves and execution
     counts are identical to the old recursion.
   - Randomized strategies derive an independent SplitMix64 stream per
     walk index from (seed, index), so a walk's schedule depends only on
     its index — that is what makes them shardable and exactly
     resumable. *)

(* Every item a strategy makes is born at a state, and keeps its trail. *)
let item ~trail ~payload ~state =
  {
    Strategy.i_sched = Strategy.Trail trail;
    i_payload = payload;
    i_state = state;
    i_witness = Strategy.no_witness;
  }

let int_param params key ~default =
  match List.assoc_opt key params with
  | Some s -> ( try int_of_string s with Failure _ -> default)
  | None -> default

(* A per-worker state cache's test-and-set: whether [sg] was already in
   [set]; it is afterwards. *)
let seen_before set sg =
  Icb_util.Sigset.mem set sg || (Icb_util.Sigset.add set sg; false)

(* One independent, reproducible stream per walk index: SplitMix64 seeded
   by a golden-ratio mix of the user seed and the index.  Walk [i]'s
   schedule is a pure function of (seed, i) — independent of which worker
   runs it, in what order, or across a kill/resume. *)
let walk_rng seed i =
  Icb_util.Rng.create
    (Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (i + 1))))

(* The state caches key on [E.signature], which an engine without
   snapshots (CHESS) leaves unchanged across a thread's first step. *)
let check_cache (type s) (module E : Engine.S with type state = s) ~cache name
    =
  if cache && Option.is_none E.snapshot then
    invalid_arg (name ^ ": the state cache needs an engine with snapshots")

(* --- where preemptions may happen ----------------------------------------- *)

(* Bindal, Bansal & Lal: instead of bounding *how many* preemptions an
   execution may contain, bound *where* preemptions may happen — only
   around the N hottest shared variables (vb:N, icb-vb:N), or only
   against the N designated threads (tb:N).  Each reuses Algorithm 1's
   inner loop with an [admit] predicate: a preemption point outside the
   bound is sealed (its preempting branches dropped and counted) instead
   of deferred. *)

let top_var_keys (env : Strategy.env) n =
  List.filteri (fun i _ -> i < n) env.Strategy.env_svars
  |> List.map (fun sv -> sv.Strategy.sv_key)

(* A preemption point admits preemptions iff the thread being switched
   away from would next touch an admitted variable.  Speculative execution
   via the engine's footprint hook; if the engine cannot speculate here we
   conservatively admit (never miss a bug to an optimization). *)
let var_admit (type s) (module E : Engine.S with type state = s) keys st tid =
  match E.step_footprint st tid with
  | exception Collector.Stop -> raise Collector.Stop
  | exception _ -> true
  | fp ->
    Engine.Footprint.Var_set.exists
      (fun v -> List.mem (Strategy.key_of_var v) keys)
      fp.Engine.Footprint.vars

(* Per-worker state of the instances built on [icb_item]: the paper's
   optional state-caching table, keyed on the work item — per worker, so
   parallel caching prunes only a worker's own revisits (sound, but a
   cached parallel run may explore more) — and the preemption points
   sealed since the last barrier. *)
type item_wstate = {
  w_cache : (int64 * int, unit) Hashtbl.t;
  mutable w_sealed : int;
}

let item_wstate () = { w_cache = Hashtbl.create 4096; w_sealed = 0 }

(* The sealed-point count is folded at each barrier and persisted through
   checkpoints ("sealed"), so exhaustion is reported as [`Bounded]
   whenever anything was sealed, [`Complete] only when the bound turned
   out not to bound anything.  The counter is advisory (a
   killed-and-resumed run may recount seals of re-run items); only its
   zeroness is ever interpreted. *)
let sealed_total base wstates =
  Array.fold_left (fun acc w -> acc + w.w_sealed) base wstates

let fold_sealed base wstates =
  base := sealed_total !base wstates;
  Array.iter (fun w -> w.w_sealed <- 0) wstates;
  !base

(* The admitted variable keys; checkpoints persist them ("vars"), and a
   resume restores them — authoritative over the constructor's, so
   resuming does not need the original env. *)
let restore_vars keys params =
  match List.assoc_opt "vars" params with
  | Some "" -> keys := []
  | Some s -> keys := String.split_on_char ',' s
  | None -> ()

(* --- Algorithm 1: iterative context bounding ---------------------------- *)

(* Round 0 of every instance built on [icb_item]: touch the initial
   state, finish a trivially terminal program, else one item per enabled
   thread. *)
let icb_roots (type s) (module E : Engine.S with type state = s) col =
  let s0 = E.initial () in
  let sg = E.signature s0 in
  Collector.touch col sg;
  match E.status s0 with
  | Engine.Running ->
    List.map
      (fun t -> item ~trail:[] ~payload:t ~state:(Some s0))
      (E.enabled s0)
  | status ->
    Search_core.finish (module E) col s0 ~signature:sg status;
    []

(* ICB's rounds (round = context bound, preempting branches deferred to
   the next round), serving [icb] and [icb_vb].  [vars] (icb-vb:N) seals
   every deferral at a preemption point that touches no admitted
   variable: per bound it explores a subset of raw ICB's executions, so a
   bug whose preemptions sit on hot variables is found strictly cheaper;
   the price is completeness — exhaustion with sealed points is
   [`Bounded], not [`Complete].  Plain [icb] passes no [vars], so
   [icb_item] runs with its default admit. *)
let icb_rounds (type s) (module E : Engine.S with type state = s) ~tag_ ~name_
    ~static ~max_bound ~cache ?vars () : (module Strategy.S with type state = s)
    =
  check_cache (module E) ~cache name_;
  (module struct
    type state = s

    let name = name_
    let tag = tag_
    let checkpointable = true
    let shardable = true
    let atomic_items = false  (* one item explores a whole subtree *)

    type wstate = item_wstate

    let wstate = item_wstate
    let sealing = Option.is_some vars
    let bound = ref 0
    let keys = ref (Option.value vars ~default:[])
    let sealed_base = ref 0

    let roots (module E : Engine.S with type state = state) _w col =
      Collector.note_bound col !bound;
      icb_roots (module E) col

    let expand (module E : Engine.S with type state = state) w ctx it =
      (* also on the expanding collector: a parallel worker's local
         collector never sees [roots]/[after_round], and its telemetry
         events must still carry the bound being explored *)
      Collector.note_bound ctx.Strategy.c_col !bound;
      match ctx.Strategy.c_materialize it with
      | None -> ()
      | Some st ->
        (* past the last bound nothing expands a deferral: it only feeds
           the final checkpoint, so it keeps no state *)
        let keep = match max_bound with Some b -> !bound < b | None -> true in
        Search_core.icb_item
          (module E)
          ctx.Strategy.c_col
          ?seen:(Search_core.item_cache ~cache w.w_cache)
          ?admit:
            (if sealing then
               Some
                 (var_admit (module E : Engine.S with type state = state) !keys)
             else None)
          ~seal:(fun () -> w.w_sealed <- w.w_sealed + 1)
          ~defer:(fun st' t ->
            ctx.Strategy.c_defer
              (item ~trail:(E.trail st') ~payload:t
                 ~state:(if keep then Some st' else None)))
          (st, it.Strategy.i_payload)

    let rank = None
    let round () = !bound

    let after_round col ~wstates ~deferred =
      Collector.record_bound col !bound;
      let sealed = fold_sealed sealed_base wstates in
      if deferred = [] then if sealed = 0 then `Complete else `Bounded
      else
        match max_bound with
        | Some b when !bound >= b ->
          (* every execution with <= b preemptions has been explored *)
          `Bounded
        | Some _ | None ->
          incr bound;
          Collector.note_bound col !bound;
          `Round deferred

    let to_prefixes ~wstates ~work ~next =
      {
        Checkpoint.v3_tag = tag;
        v3_params =
          static
          @ (if sealing then [ ("vars", String.concat "," !keys) ] else [])
          @ [ ("cache", string_of_bool cache) ]
          @
          if sealing then
            [ ("sealed", string_of_int (sealed_total !sealed_base wstates)) ]
          else [];
        v3_round = !bound;
        v3_work = work;
        v3_next = next;
      }

    let of_prefixes col (f : Checkpoint.v3) =
      bound := f.Checkpoint.v3_round;
      Collector.note_bound col !bound;
      if sealing then begin
        restore_vars keys f.Checkpoint.v3_params;
        sealed_base := int_param f.Checkpoint.v3_params "sealed" ~default:0
      end;
      (f.Checkpoint.v3_work, f.Checkpoint.v3_next)
  end)

let max_bound_param = function
  | None -> []
  | Some b -> [ ("max_bound", string_of_int b) ]

let icb (type s) (module E : Engine.S with type state = s) ~max_bound ~cache =
  icb_rounds
    (module E)
    ~tag_:"icb"
    ~name_:(Search_core.icb_strategy_name ~max_bound)
    ~static:(max_bound_param max_bound) ~max_bound ~cache ()

let icb_vb (type s) (module E : Engine.S with type state = s) ~n ~max_bound
    ~cache ~env =
  icb_rounds
    (module E)
    ~tag_:"icb-vb"
    ~name_:(Printf.sprintf "icb-vb:%d" n)
    ~static:(("n", string_of_int n) :: max_bound_param max_bound)
    ~max_bound ~cache
    ~vars:(top_var_keys env n) ()

(* --- the depth-first family --------------------------------------------- *)

(* DFS, depth-bounded DFS and iterative deepening share one instance: a
   round explores everything under the current depth bound; the barrier
   decides whether truncation demands a deeper round.  Items are single
   steps — (parent prefix, tid), or [visit] for the root — whose
   follow-ups run next, newest first, so the event order matches the
   recursive formulation exactly. *)
let dfs_family (type s) (module E : Engine.S with type state = s) ~tag_ ~name_
    ~static ~cache ~first ~next_depth :
    (module Strategy.S with type state = s) =
  check_cache (module E) ~cache name_;
  (module struct
    type state = s

    let name = name_
    let tag = tag_
    let checkpointable = true
    let shardable = true
    let atomic_items = true  (* at most one [finish] per item, as its
                                last collector-visible action *)

    type wstate = {
      w_seen : Icb_util.Sigset.t;
      mutable w_truncated : int;
    }

    let wstate () = { w_seen = Icb_util.Sigset.create 1024; w_truncated = 0 }
    let cur_bound = ref first

    (* truncations observed this round in checkpointed-away phases of the
       run; [after_round] folds the live worker counters on top *)
    let trunc_base = ref 0
    let root = item ~trail:[] ~payload:Strategy.visit ~state:None

    let roots (module _ : Engine.S with type state = state) _w _col = [ root ]

    let seen w st_sig = cache && seen_before w.w_seen st_sig

    let expand (module E : Engine.S with type state = state) w ctx it =
      let col = ctx.Strategy.c_col in
      (* visit a newly reached state: finish terminal or truncated
         executions, otherwise push one item per enabled thread (reversed,
         so the first enabled thread's item, pushed last, runs first) *)
      let enter st sg =
        match E.status st with
        | Engine.Running ->
          if
            match !cur_bound with
            | Some b -> E.depth st >= b
            | None -> false
          then begin
            w.w_truncated <- w.w_truncated + 1;
            Search_core.finish (module E) col st ~signature:sg Engine.Running
          end
          else
            List.iter
              (fun t ->
                ctx.Strategy.c_push
                  (item ~trail:(E.trail st) ~payload:t ~state:(Some st)))
              (List.rev (E.enabled st))
        | status -> Search_core.finish (module E) col st ~signature:sg status
      in
      let reach st =
        let sg = E.signature st in
        Collector.touch col sg;
        if not (seen w sg) then enter st sg
      in
      match ctx.Strategy.c_materialize it with
      | None -> ()
      | Some st ->
        if it.Strategy.i_payload = Strategy.visit then reach st
        else begin
          match
            Search_core.step_guarded (module E) col st it.Strategy.i_payload
          with
          | None -> ()
          | Some st' -> reach st'
        end

    let rank = None
    let round () = match !cur_bound with None -> 0 | Some d -> d

    let after_round _col ~wstates ~deferred:_ =
      let truncated =
        Array.fold_left
          (fun acc w ->
            let n = w.w_truncated in
            w.w_truncated <- 0;
            acc + n)
          !trunc_base wstates
      in
      trunc_base := 0;
      if truncated = 0 then `Complete
      else
        match Option.bind !cur_bound next_depth with
        | Some d' ->
          cur_bound := Some d';
          (* each round gets fresh caches: a state first reached near the
             old bound may have unexplored descendants below the new one *)
          Array.iter (fun w -> Icb_util.Sigset.reset w.w_seen) wstates;
          `Round [ root ]
        | None ->
          (* keep the count in the final checkpoint: resuming it must
             re-derive `Bounded, not conclude `Complete *)
          trunc_base := truncated;
          `Bounded

    let to_prefixes ~wstates ~work ~next =
      let truncated =
        Array.fold_left (fun acc w -> acc + w.w_truncated) !trunc_base wstates
      in
      {
        Checkpoint.v3_tag = tag;
        v3_params =
          static
          @ [
              ("cache", string_of_bool cache);
              ("truncated", string_of_int truncated);
            ];
        v3_round = round ();
        v3_work = work;
        v3_next = next;
      }

    let of_prefixes _col (f : Checkpoint.v3) =
      (match !cur_bound with
      | Some _ -> cur_bound := Some f.Checkpoint.v3_round
      | None -> ());
      trunc_base := int_param f.Checkpoint.v3_params "truncated" ~default:0;
      (f.Checkpoint.v3_work, f.Checkpoint.v3_next)
  end)

let dfs (type s) (module E : Engine.S with type state = s) ~cache =
  dfs_family (module E) ~tag_:"dfs" ~name_:"dfs" ~static:[] ~cache ~first:None
    ~next_depth:(fun _ -> None)

let bounded_dfs (type s) (module E : Engine.S with type state = s) ~depth
    ~cache =
  dfs_family (module E)
    ~tag_:"db"
    ~name_:(Printf.sprintf "db:%d" depth)
    ~static:[ ("depth", string_of_int depth) ]
    ~cache ~first:(Some depth)
    ~next_depth:(fun _ -> None)

(* Depth bounds start, start + incr, ..., each capped at [max_depth]: the
   last round is at [max_depth], so idfs:N covers db:N's space. *)
let iterative_dfs (type s) (module E : Engine.S with type state = s) ~start
    ~incr ~max_depth ~cache =
  dfs_family (module E)
    ~tag_:"idfs"
    ~name_:(Printf.sprintf "idfs:%d" max_depth)
    ~static:
      [
        ("start", string_of_int start);
        ("incr", string_of_int incr);
        ("max_depth", string_of_int max_depth);
      ]
    ~cache
    ~first:(Some (min start max_depth))
    ~next_depth:(fun d ->
      if d >= max_depth then None else Some (min (d + incr) max_depth))

(* --- depth-first search with sleep sets --------------------------------- *)

(* Godefroid's sleep sets over dynamic footprints: after fully exploring a
   sibling transition t, later siblings carry t in their sleep set and skip
   it until some dependent step wakes it.  Because the footprints are
   computed by speculative execution at the very state where the sleeping
   step would run, disjointness implies true commutation there (a step
   whose variables the other step does not touch reads the same values and
   takes the same path in either order).  Sleep sets prune redundant
   interleavings only, so the set of reachable states is preserved — a
   property the test suite checks against plain DFS.

   The sleep sets are footprint closures of the whole path, so the
   frontier does not serialize to schedule prefixes and the whole search
   runs as a single item: serial-only, no checkpointing. *)
let sleep_dfs (type s) (module _ : Engine.S with type state = s) :
    (module Strategy.S with type state = s) =
  (module struct
    type state = s

    let name = "sleep-dfs"
    let tag = "sleep-dfs"
    let checkpointable = false
    let shardable = false
    let atomic_items = false

    type wstate = unit

    let wstate () = ()

    let roots (module E : Engine.S with type state = state) _w col =
      let s0 = E.initial () in
      Collector.touch col (E.signature s0);
      [ item ~trail:[] ~payload:Strategy.visit ~state:(Some s0) ]

    let expand (module E : Engine.S with type state = state) () ctx it =
      let col = ctx.Strategy.c_col in
      let rec dfs st sg (sleep : (int * Engine.Footprint.t) list) =
        match E.status st with
        | Engine.Running ->
          let explored = ref [] in
          List.iter
            (fun t ->
              if not (List.mem_assoc t sleep) then begin
                match E.step_footprint st t with
                | exception Collector.Stop -> raise Collector.Stop
                | exception exn -> Search_core.record_crash (module E) col st t exn
                | fp -> (
                  match Search_core.step_guarded (module E) col st t with
                  | None -> ()
                  | Some st' ->
                    let sg' = E.signature st' in
                    Collector.touch col sg';
                    let sleep' =
                      List.filter
                        (fun (_, fp_u) -> Engine.Footprint.independent fp fp_u)
                        (sleep @ !explored)
                    in
                    dfs st' sg' sleep';
                    explored := (t, fp) :: !explored)
              end)
            (E.enabled st)
        | status -> Search_core.finish (module E) col st ~signature:sg status
      in
      match ctx.Strategy.c_materialize it with
      | None -> ()
      | Some st -> dfs st (E.signature st) []

    let rank = None
    let round () = 0
    let after_round _col ~wstates:_ ~deferred:_ = `Complete

    let to_prefixes ~wstates:_ ~work:_ ~next:_ =
      invalid_arg "sleep-dfs frontiers do not serialize"

    let of_prefixes _ _ = invalid_arg "sleep-dfs frontiers do not serialize"
  end)

(* --- best-first search by enabled-thread count --------------------------- *)

(* Groce & Visser's structural heuristic (ISSTA 2002), cited by the paper
   as prior heuristic search: prefer frontier states with more enabled
   threads.  Its [rank] gives the serial runner's best-first order; the
   global priority queue is what keeps this strategy serial-only. *)
let most_enabled (type s) (module E : Engine.S with type state = s) ~cache :
    (module Strategy.S with type state = s) =
  check_cache (module E) ~cache "most-enabled";
  (module struct
    type state = s

    let name = "most-enabled"
    let tag = "most-enabled"
    let checkpointable = true
    let shardable = false
    let atomic_items = false

    type wstate = Icb_util.Sigset.t

    let wstate () = Icb_util.Sigset.create 1024
    let seen table sg = cache && seen_before table sg

    let roots (module E : Engine.S with type state = state) w col =
      let s0 = E.initial () in
      let sg = E.signature s0 in
      Collector.touch col sg;
      if not (seen w sg) then
        [ item ~trail:[] ~payload:Strategy.visit ~state:(Some s0) ]
      else []

    let expand (module E : Engine.S with type state = state) w ctx it =
      let col = ctx.Strategy.c_col in
      match ctx.Strategy.c_materialize it with
      | None -> ()
      | Some st -> (
        match E.status st with
        | Engine.Running ->
          List.iter
            (fun t ->
              match Search_core.step_guarded (module E) col st t with
              | None -> ()
              | Some st' ->
                let sg = E.signature st' in
                Collector.touch col sg;
                if not (seen w sg) then
                  ctx.Strategy.c_push
                    (item ~trail:(E.trail st') ~payload:Strategy.visit
                       ~state:(Some st')))
            (E.enabled st)
        | status ->
          Search_core.finish (module E) col st ~signature:(E.signature st)
            status)

    let rank =
      Some
        (fun (module E : Engine.S with type state = state) it ->
          match it.Strategy.i_state with
          | Some st -> List.length (E.enabled st)
          | None -> 0)

    let round () = 0

    let after_round _col ~wstates:_ ~deferred:_ = `Complete

    let to_prefixes ~wstates:_ ~work ~next =
      {
        Checkpoint.v3_tag = tag;
        v3_params = [ ("cache", string_of_bool cache) ];
        v3_round = 0;
        v3_work = work;
        v3_next = next;
      }

    let of_prefixes _col (f : Checkpoint.v3) =
      (f.Checkpoint.v3_work, f.Checkpoint.v3_next)
  end)

(* --- randomized restart sampling: random walk and PCT -------------------- *)

(* Walks are numbered; walk [i] draws from [walk_rng seed i], and a round
   is a batch of indices — so the walk multiset is a pure function of
   (seed, walk count), shardable across domains and exactly resumable.
   Without an execution or step limit sampling never stops; the caller's
   options must bound it, but a large default cap guards against looping
   forever on a misconfiguration.

   The strategies differ only in how a walk picks among the enabled
   threads: [picker ~k rng] is one walk's chooser, [k] the running
   estimate of an execution's length — the deepest walk so far, folded
   over workers at the round barrier (a deterministic max, keeping
   parallel runs reproducible).  [params ~k] are the checkpoint's. *)
let walk_batch = 64

let walk_hard_cap = 1_000_000

let walks (type s) (module _ : Engine.S with type state = s) ~tag_ ~name_
    ~seed ~params ~picker : (module Strategy.S with type state = s) =
  (module struct
    type state = s

    let name = name_
    let tag = tag_
    let checkpointable = true
    let shardable = true
    let atomic_items = true  (* one walk = one execution *)

    type wstate = { mutable w_kmax : int }

    let wstate () = { w_kmax = 0 }
    let next_index = ref 0
    let k_estimate = ref 32

    let take_batch () =
      let lo = !next_index in
      let hi = min (lo + walk_batch) walk_hard_cap in
      next_index := hi;
      List.init (hi - lo) (fun k ->
          item ~trail:[] ~payload:(lo + k) ~state:None)

    let roots (module _ : Engine.S with type state = state) _w _col =
      take_batch ()

    let expand (module E : Engine.S with type state = state) w ctx it =
      let col = ctx.Strategy.c_col in
      let pick = picker ~k:!k_estimate (walk_rng seed it.Strategy.i_payload) in
      (* returns the execution's last state *)
      let rec walk st sg =
        match E.status st with
        | Engine.Running -> (
          let t = pick (E.enabled st) in
          match Search_core.step_guarded (module E) col st t with
          | None -> st  (* crash recorded; this execution is over *)
          | Some st' ->
            let sg' = E.signature st' in
            Collector.touch col sg';
            walk st' sg')
        | status ->
          Search_core.finish (module E) col st ~signature:sg status;
          st
      in
      let s0 = E.initial () in
      let sg0 = E.signature s0 in
      Collector.touch col sg0;
      w.w_kmax <- max w.w_kmax (E.depth (walk s0 sg0))

    let rank = None
    let round () = !next_index

    let kmax wstates =
      Array.fold_left (fun acc w -> max acc w.w_kmax) !k_estimate wstates

    let after_round col ~wstates ~deferred:_ =
      k_estimate := kmax wstates;
      if Collector.executions col >= walk_hard_cap || !next_index >= walk_hard_cap
      then `Bounded
      else `Round (take_batch ())

    let to_prefixes ~wstates ~work ~next =
      {
        Checkpoint.v3_tag = tag;
        v3_params = params ~k:(kmax wstates);
        v3_round = !next_index;
        v3_work = work;
        v3_next = next;
      }

    let of_prefixes _col (f : Checkpoint.v3) =
      next_index := f.Checkpoint.v3_round;
      k_estimate := int_param f.Checkpoint.v3_params "k" ~default:32;
      if f.Checkpoint.v3_work = [] then
        (* a legacy (v2) frontier carries no walk indices — the collector
           execution count positioned [v3_round]; start the next batch *)
        (List.map Strategy.prefix_of (take_batch ()), [])
      else (f.Checkpoint.v3_work, f.Checkpoint.v3_next)
  end)

(* Uniform restart sampling. *)
let random_walk (type s) (module E : Engine.S with type state = s) ~seed =
  walks
    (module E)
    ~tag_:"random" ~name_:"random" ~seed
    ~params:(fun ~k:_ -> [ ("seed", Int64.to_string seed) ])
    ~picker:(fun ~k:_ rng -> Icb_util.Rng.pick rng)

(* PCT: probabilistic concurrency testing.  Burckhardt, Kothari,
   Musuvathi, Nagarakatte (ASPLOS 2010), the randomized successor of
   iterative context bounding from the same group: each execution runs
   threads by randomly assigned priorities, lowering the running thread's
   priority at [change_points - 1] uniformly chosen steps, drawn up to
   the step-count estimate [k].  Any bug of preemption depth d is found
   with probability at least 1/(n * k^(d-1)) per execution. *)
let pct (type s) (module E : Engine.S with type state = s) ~change_points
    ~seed =
  walks
    (module E)
    ~tag_:"pct"
    ~name_:(Printf.sprintf "pct:%d" change_points)
    ~seed
    ~params:(fun ~k ->
      [
        ("change_points", string_of_int change_points);
        ("seed", Int64.to_string seed);
        ("k", string_of_int k);
      ])
    ~picker:(fun ~k rng ->
      let priorities : (int, int) Hashtbl.t = Hashtbl.create 8 in
      (* initial and spawned threads draw a random high priority; change
         points later demote to the low band 1..d-1 *)
      let d = max 1 change_points in
      let priority_of t =
        match Hashtbl.find_opt priorities t with
        | Some p -> p
        | None ->
          let p = d + Icb_util.Rng.int rng 1000 in
          Hashtbl.add priorities t p;
          p
      in
      let change_steps =
        List.init (d - 1) (fun i ->
            (i + 1, 1 + Icb_util.Rng.int rng (max 1 k)))
      in
      let steps = ref 0 in
      fun en ->
        let t =
          List.fold_left
            (fun best t ->
              match best with
              | None -> Some t
              | Some b ->
                if priority_of t > priority_of b then Some t else best)
            None en
          |> Option.get
        in
        incr steps;
        List.iter
          (fun (low, at) ->
            if at = !steps then Hashtbl.replace priorities t low)
          change_steps;
        t)

(* --- variable and thread bounding ---------------------------------------- *)

(* vb:N and tb:N share this instance: one round over the sealed subspace,
   depth-first, with no limit on the preemption count — the bound is the
   *where*, not the *how many*.  Preempting branches go into the
   *current* round's queue (run next, newest first: depth first); sealed
   points bump the per-worker counter.  [vars] (vb:N) are the admitted
   variable keys, persisted through checkpoints. *)
let sealed_space (type s) (module E : Engine.S with type state = s) ~tag_
    ~name_ ~static ~cache ?vars ~mk_admit () :
    (module Strategy.S with type state = s) =
  check_cache (module E) ~cache name_;
  (module struct
    type state = s

    let name = name_
    let tag = tag_
    let checkpointable = true
    let shardable = true
    let atomic_items = false

    type wstate = item_wstate

    let wstate = item_wstate
    let keys = ref (Option.value vars ~default:[])
    let sealed_base = ref 0

    let roots (module E : Engine.S with type state = state) _w col =
      icb_roots (module E) col

    let expand (module E : Engine.S with type state = state) w ctx it =
      match ctx.Strategy.c_materialize it with
      | None -> ()
      | Some st ->
        Search_core.icb_item
          (module E)
          ctx.Strategy.c_col
          ?seen:(Search_core.item_cache ~cache w.w_cache)
          ~admit:(mk_admit (module E : Engine.S with type state = state) !keys)
          ~seal:(fun () -> w.w_sealed <- w.w_sealed + 1)
          ~defer:(fun st' t ->
            ctx.Strategy.c_push
              (item ~trail:(E.trail st') ~payload:t ~state:(Some st')))
          (st, it.Strategy.i_payload)

    let rank = None
    let round () = 0

    let after_round col ~wstates ~deferred:_ =
      Collector.record_bound col 0;
      if fold_sealed sealed_base wstates = 0 then `Complete else `Bounded

    let to_prefixes ~wstates ~work ~next =
      {
        Checkpoint.v3_tag = tag;
        v3_params =
          static
          @ (if vars <> None then [ ("vars", String.concat "," !keys) ] else [])
          @ [
              ("cache", string_of_bool cache);
              ("sealed", string_of_int (sealed_total !sealed_base wstates));
            ];
        v3_round = 0;
        v3_work = work;
        v3_next = next;
      }

    let of_prefixes _col (f : Checkpoint.v3) =
      if vars <> None then restore_vars keys f.Checkpoint.v3_params;
      sealed_base := int_param f.Checkpoint.v3_params "sealed" ~default:0;
      (f.Checkpoint.v3_work, f.Checkpoint.v3_next)
  end)

let variable_bound (type s) (module E : Engine.S with type state = s) ~n
    ~cache ~env : (module Strategy.S with type state = s) =
  sealed_space
    (module E)
    ~tag_:"vb"
    ~name_:(Printf.sprintf "vb:%d" n)
    ~static:[ ("n", string_of_int n) ]
    ~cache
    ~vars:(top_var_keys env n) ~mk_admit:var_admit ()

(* Designated threads are the N lowest tids (creation order, main = 0):
   deterministic, env-free, and matching how the benchmarks spawn their
   contending workers first. *)
let thread_bound (type s) (module E : Engine.S with type state = s) ~n ~cache :
    (module Strategy.S with type state = s) =
  sealed_space
    (module E)
    ~tag_:"tb"
    ~name_:(Printf.sprintf "tb:%d" n)
    ~static:[ ("n", string_of_int n) ]
    ~cache
    ~mk_admit:(fun _ _ _ tid -> tid < n)
    ()

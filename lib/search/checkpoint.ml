(* On-disk checkpoints for interruptible exploration.

   A checkpoint is portable across processes but tied to one program: the
   search frontier is stored as replayable schedule prefixes (plain int
   lists), never as marshaled engine states — engine states hold
   continuations (the CHESS engine) or large persistent structures, and
   replaying a prefix through [Engine.S.step] rebuilds them exactly.

   A file is one [Icb_util.Framing] frame, magic "ICBCKPT\x01", whose
   payload is the Marshal of [t].  [Framing] writes it atomically and
   reads it back without raising, so a truncated or damaged file, or a
   payload that does not unmarshal, is a [Corrupt] rather than a crash
   or a wrong resume.

   Version history:
     v1  ICB/random-walk frontiers; collector snapshots without the
         per-bound execution counts.
     v2  collector snapshots grew [s_bound_executions] (appended last, so
         v2 payloads still unmarshal at the current layouts).
     v3  the strategy-agnostic frontier: a strategy tag, its parameters
         as strings, the round counter and the work/deferred prefix
         lists.  Any checkpointable strategy serializes to it.
   v1 and v2 files are read (the legacy frontier constructors below keep
   their Marshal tags) and upgraded in memory via [to_v3]; files are
   always written at the current version. *)

type v3 = {
  v3_tag : string;       (* strategy family, e.g. "icb", "random" *)
  v3_params : (string * string) list;
      (* enough to rebuild the strategy: max_bound/cache/seed/...; may
         also carry round-local progress (e.g. idfs truncation count) *)
  v3_round : int;        (* strategy-interpreted: ICB bound, iterative
                            depth, next walk index, ... *)
  v3_work : (int list * int) list;
      (* (schedule prefix, payload) — the current round's pending items;
         payload is the thread to run, [-1] for "visit the replayed
         state", or a walk index for randomized strategies *)
  v3_next : (int list * int) list;  (* deferred to the next round *)
}

type frontier =
  | Icb_frontier of {
      bound : int;
      work : (int list * int) list;
      next : (int list * int) list;
      max_bound : int option;
      cache : bool;
      cache_keys : (int64 * int) list;
    }  (* legacy: read from v1/v2 files only, upgraded by [to_v3] *)
  | Random_frontier of { seed : int64; rng_state : int64 }  (* legacy *)
  | V3 of v3

type t = {
  strategy : string;
  meta : (string * string) list;
  collector : Collector.snapshot;
  frontier : frontier;
}

exception Corrupt of string

let magic = "ICBCKPT\x01"

(* v3: the strategy-agnostic frontier. *)
let version = 3

(* The v1 payload layout: same record, but the collector snapshot lacks
   its (last) per-bound execution field.  The frontier type is unchanged
   between v1 and v2, and appending [V3] keeps the legacy constructors'
   Marshal tags stable, so [frontier] itself still matches. *)
type t_v1 = {
  v1_strategy : string;
  v1_meta : (string * string) list;
  v1_collector : Collector.snapshot_v1;
  v1_frontier : frontier;
}

let save ~path t =
  Icb_util.Framing.write_file ~path ~magic ~version
    ~payload:(Marshal.to_string t [])

let load path =
  let what = "checkpoint " ^ path in
  let decoded =
    match
      Icb_util.Framing.read_file
        ~check_version:(fun v -> v >= 1 && v <= version)
        ~path ~magic ()
    with
    | Error e -> Error (Icb_util.Framing.message ~what e)
    | Ok (1, payload) ->
      Result.map
        (fun (old : t_v1) ->
          {
            strategy = old.v1_strategy;
            meta = old.v1_meta;
            collector = Collector.snapshot_of_v1 old.v1_collector;
            frontier = old.v1_frontier;
          })
        (Icb_util.Framing.unmarshal ~what payload)
    | Ok (_, payload) -> Icb_util.Framing.unmarshal ~what payload
  in
  match decoded with Ok t -> t | Error msg -> raise (Corrupt msg)

(* Upgrade a legacy frontier in memory.  The random-walk conversion drops
   the saved sequential RNG state: walks are now derived from (seed, walk
   index), so the collector's execution count tells the resume where the
   stream stands. *)
let to_v3 (t : t) : v3 =
  match t.frontier with
  | V3 f -> f
  | Icb_frontier { bound; work; next; max_bound; cache; cache_keys = _ } ->
    {
      v3_tag = "icb";
      v3_params =
        (match max_bound with
        | None -> [ ("cache", string_of_bool cache) ]
        | Some b ->
          [ ("max_bound", string_of_int b); ("cache", string_of_bool cache) ]);
      v3_round = bound;
      v3_work = work;
      v3_next = next;
    }
  | Random_frontier { seed; rng_state = _ } ->
    {
      v3_tag = "random";
      v3_params = [ ("seed", Int64.to_string seed) ];
      v3_round = Collector.snapshot_executions t.collector;
      v3_work = [];
      v3_next = [];
    }

let meta_find t key = List.assoc_opt key t.meta

(* --- wall-clock timing params ------------------------------------------- *)

(* Cumulative timing the driver stamps into [v3_params] at every save.
   Being string params, they extend the v3 format compatibly: older
   builds ignore unknown keys, files without them simply report no
   timing.  These are the only nondeterministic fields a checkpoint
   carries — telemetry-neutrality comparisons normalize them away. *)
let elapsed_key = "elapsed_s"
let bound_times_key = "bound_times_s"

let encode_bound_times bt =
  String.concat ","
    (List.map (fun (b, s) -> Printf.sprintf "%d:%.3f" b s) bt)

let decode_bound_times s =
  if s = "" then []
  else
    List.filter_map
      (fun tok ->
        match String.index_opt tok ':' with
        | Some i -> (
          match
            ( int_of_string_opt (String.sub tok 0 i),
              float_of_string_opt
                (String.sub tok (i + 1) (String.length tok - i - 1)) )
          with
          | Some b, Some sec -> Some (b, sec)
          | _ -> None)
        | None -> None)
      (String.split_on_char ',' s)

let elapsed t =
  Option.bind
    (List.assoc_opt elapsed_key (to_v3 t).v3_params)
    float_of_string_opt

let bound_times t =
  match List.assoc_opt bound_times_key (to_v3 t).v3_params with
  | Some s -> decode_bound_times s
  | None -> []

let describe t =
  let frontier =
    let f = to_v3 t in
    Printf.sprintf "%s at round %d (%d work items, %d deferred)" f.v3_tag
      f.v3_round (List.length f.v3_work)
      (List.length f.v3_next)
  in
  Printf.sprintf "%s: %s%s%s" t.strategy frontier
    (match elapsed t with
    | Some s -> Printf.sprintf " — %.1fs explored so far" s
    | None -> "")
    (if Collector.snapshot_complete t.collector then " — already complete"
     else "")

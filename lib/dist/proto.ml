module Json = Icb_obs.Json
module Framing = Icb_util.Framing

let magic = "ICBDIST\x01"
let version = 2

type job = {
  j_meta : (string * string) list;
  j_root_sig : string;
  j_deadlock_is_error : bool;
  j_terminal_states_only : bool;
  j_cache : bool;
  j_events : bool;
  j_worker : int;
}

type batch = {
  b_lease : int;
  b_id : int;
  b_tag : string;
  b_params : (string * string) list;
  b_round : int;
  b_items : (int list * int) list;
  b_pending : int;
}

type report = {
  r_params : (string * string) list;
  r_snapshot : Json.t;
  r_deferred : (int list * int) list;
  r_events : Json.t list;
  r_metrics : Json.t option;
}

type c2s = Hello | Request | Result of { lease : int; report : report }

type s2c =
  | Job of job
  | Batch of batch
  | Wait of { ms : int }
  | Done
  | Accepted
  | Stale

(* --- transport ------------------------------------------------------------ *)

let send oc j =
  Framing.write_frame oc ~magic ~version ~payload:(Json.to_string j);
  flush oc

let recv ic =
  match
    Framing.read_frame ~check_version:(fun v -> v = version) ic ~magic
  with
  | Error (Framing.Truncated Framing.Magic) ->
    (* the input ended on a frame boundary: the peer hung up *)
    Error `Closed
  | Error e -> Error (`Malformed (Framing.message ~what:"protocol frame" e))
  | Ok (_, payload) -> (
    match Json.parse payload with
    | j -> Ok j
    | exception Json.Parse_error m -> Error (`Malformed ("bad JSON: " ^ m)))

(* --- field codecs --------------------------------------------------------- *)

let ( let* ) = Result.bind

let params_to_json ps =
  Json.List
    (List.map (fun (k, v) -> Json.List [ Json.String k; Json.String v ]) ps)

let params_of_json j key =
  let* l = Json.list j key in
  Json.map_result
    (function
      | Json.List [ Json.String k; Json.String v ] -> Ok (k, v)
      | _ -> Error (Printf.sprintf "field %S holds a bad param pair" key))
    l

let items_to_json items =
  Json.List
    (List.map
       (fun (sched, payload) ->
         Json.List
           [
             Json.List (List.map (fun t -> Json.Int t) sched);
             Json.Int payload;
           ])
       items)

let items_of_json j key =
  let bad what = Error (Printf.sprintf "field %S holds a bad %s" key what) in
  let* l = Json.list j key in
  Json.map_result
    (function
      | Json.List [ Json.List sched; Json.Int payload ] ->
        let* sched =
          Json.map_result
            (function Json.Int t -> Ok t | _ -> bad "schedule")
            sched
        in
        Ok (sched, payload)
      | _ -> bad "item")
    l

(* --- messages ------------------------------------------------------------- *)

let report_to_json r =
  Json.Obj
    [
      ("params", params_to_json r.r_params);
      ("snapshot", r.r_snapshot);
      ("deferred", items_to_json r.r_deferred);
      ("events", Json.List r.r_events);
      ("metrics", Option.value r.r_metrics ~default:Json.Null);
    ]

let report_of_json j =
  let* r_params = params_of_json j "params" in
  let* r_snapshot = Json.field j "snapshot" in
  let* r_deferred = items_of_json j "deferred" in
  let* r_events = Json.list j "events" in
  let* r_metrics =
    let* m = Json.field j "metrics" in
    match m with
    | Json.Null -> Ok None
    | Json.Obj _ -> Ok (Some m)
    | _ -> Error "field \"metrics\" is not an object"
  in
  Ok { r_params; r_snapshot; r_deferred; r_events; r_metrics }

let c2s_to_json = function
  | Hello -> Json.Obj [ ("type", Json.String "hello") ]
  | Request -> Json.Obj [ ("type", Json.String "request") ]
  | Result { lease; report } ->
    Json.Obj
      [
        ("type", Json.String "result");
        ("lease", Json.Int lease);
        ("report", report_to_json report);
      ]

let c2s_of_json j =
  let* ty = Json.string j "type" in
  match ty with
  | "hello" -> Ok Hello
  | "request" -> Ok Request
  | "result" ->
    let* lease = Json.int j "lease" in
    let* report = Result.bind (Json.field j "report") report_of_json in
    Ok (Result { lease; report })
  | ty -> Error (Printf.sprintf "unknown client message type %S" ty)

let s2c_to_json = function
  | Job job ->
    Json.Obj
      [
        ("type", Json.String "job");
        ("meta", params_to_json job.j_meta);
        ("root_sig", Json.String job.j_root_sig);
        ("deadlock_is_error", Json.Bool job.j_deadlock_is_error);
        ("terminal_states_only", Json.Bool job.j_terminal_states_only);
        ("cache", Json.Bool job.j_cache);
        ("events", Json.Bool job.j_events);
        ("worker", Json.Int job.j_worker);
      ]
  | Batch b ->
    Json.Obj
      [
        ("type", Json.String "batch");
        ("lease", Json.Int b.b_lease);
        ("id", Json.Int b.b_id);
        ("tag", Json.String b.b_tag);
        ("params", params_to_json b.b_params);
        ("round", Json.Int b.b_round);
        ("items", items_to_json b.b_items);
        ("pending", Json.Int b.b_pending);
      ]
  | Wait { ms } ->
    Json.Obj [ ("type", Json.String "wait"); ("ms", Json.Int ms) ]
  | Done -> Json.Obj [ ("type", Json.String "done") ]
  | Accepted -> Json.Obj [ ("type", Json.String "accepted") ]
  | Stale -> Json.Obj [ ("type", Json.String "stale") ]

let s2c_of_json j =
  let* ty = Json.string j "type" in
  match ty with
  | "job" ->
    let* j_meta = params_of_json j "meta" in
    let* j_root_sig = Json.string j "root_sig" in
    let* j_deadlock_is_error = Json.bool j "deadlock_is_error" in
    let* j_terminal_states_only = Json.bool j "terminal_states_only" in
    let* j_cache = Json.bool j "cache" in
    let* j_events = Json.bool j "events" in
    let* j_worker = Json.int j "worker" in
    Ok
      (Job
         {
           j_meta;
           j_root_sig;
           j_deadlock_is_error;
           j_terminal_states_only;
           j_cache;
           j_events;
           j_worker;
         })
  | "batch" ->
    let* b_lease = Json.int j "lease" in
    let* b_id = Json.int j "id" in
    let* b_tag = Json.string j "tag" in
    let* b_params = params_of_json j "params" in
    let* b_round = Json.int j "round" in
    let* b_items = items_of_json j "items" in
    let* b_pending = Json.int j "pending" in
    Ok (Batch { b_lease; b_id; b_tag; b_params; b_round; b_items; b_pending })
  | "wait" ->
    let* ms = Json.int j "ms" in
    Ok (Wait { ms })
  | "done" -> Ok Done
  | "accepted" -> Ok Accepted
  | "stale" -> Ok Stale
  | ty -> Error (Printf.sprintf "unknown server message type %S" ty)

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
    (* EOF on a frame boundary: the peer hung up cleanly *)
    Error `Closed
  | Error (Framing.Truncated _) -> Error (`Malformed "truncated frame")
  | Error Framing.Bad_magic -> Error (`Malformed "bad frame magic")
  | Error (Framing.Bad_version v) ->
    Error (`Malformed (Printf.sprintf "unsupported protocol version %d" v))
  | Error Framing.Negative_length -> Error (`Malformed "negative frame length")
  | Error Framing.Digest_mismatch -> Error (`Malformed "frame digest mismatch")
  | Error (Framing.Cannot_open _) -> Error (`Malformed "unreadable stream")
  | Ok (_, payload) -> (
    match Json.parse payload with
    | j -> Ok j
    | exception Json.Parse_error m -> Error (`Malformed ("bad JSON: " ^ m)))

(* --- field codecs --------------------------------------------------------- *)

let ( let* ) = Result.bind

let field j key =
  match Json.find j key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "message: missing field %S" key)

let int_field j key =
  let* v = field j key in
  match Json.to_int v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "message: field %S is not an int" key)

let str_field j key =
  let* v = field j key in
  match Json.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "message: field %S is not a string" key)

let bool_field j key =
  let* v = field j key in
  match Json.to_bool v with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "message: field %S is not a bool" key)

let list_field j key =
  let* v = field j key in
  match v with
  | Json.List l -> Ok l
  | _ -> Error (Printf.sprintf "message: field %S is not a list" key)

let map_result f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let params_to_json ps =
  Json.List
    (List.map (fun (k, v) -> Json.List [ Json.String k; Json.String v ]) ps)

let params_of_json key j =
  let* l =
    match j with
    | Json.List l -> Ok l
    | _ -> Error (Printf.sprintf "message: field %S is not a list" key)
  in
  map_result
    (function
      | Json.List [ Json.String k; Json.String v ] -> Ok (k, v)
      | _ ->
        Error (Printf.sprintf "message: field %S holds a bad param pair" key))
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

let items_of_json key j =
  let* l =
    match j with
    | Json.List l -> Ok l
    | _ -> Error (Printf.sprintf "message: field %S is not a list" key)
  in
  map_result
    (function
      | Json.List [ Json.List sched; Json.Int payload ] ->
        let* sched =
          map_result
            (function
              | Json.Int t -> Ok t
              | _ ->
                Error
                  (Printf.sprintf "message: field %S holds a bad schedule" key))
            sched
        in
        Ok (sched, payload)
      | _ -> Error (Printf.sprintf "message: field %S holds a bad item" key))
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
  let* params = field j "params" in
  let* r_params = params_of_json "params" params in
  let* r_snapshot = field j "snapshot" in
  let* deferred = field j "deferred" in
  let* r_deferred = items_of_json "deferred" deferred in
  let* r_events = list_field j "events" in
  let* r_metrics =
    let* m = field j "metrics" in
    match m with
    | Json.Null -> Ok None
    | Json.Obj _ -> Ok (Some m)
    | _ -> Error "message: field \"metrics\" is not an object"
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
  let* ty = str_field j "type" in
  match ty with
  | "hello" -> Ok Hello
  | "request" -> Ok Request
  | "result" ->
    let* lease = int_field j "lease" in
    let* rj = field j "report" in
    let* report = report_of_json rj in
    Ok (Result { lease; report })
  | ty -> Error (Printf.sprintf "message: unknown client type %S" ty)

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
  let* ty = str_field j "type" in
  match ty with
  | "job" ->
    let* meta = field j "meta" in
    let* j_meta = params_of_json "meta" meta in
    let* j_root_sig = str_field j "root_sig" in
    let* j_deadlock_is_error = bool_field j "deadlock_is_error" in
    let* j_terminal_states_only = bool_field j "terminal_states_only" in
    let* j_cache = bool_field j "cache" in
    let* j_events = bool_field j "events" in
    let* j_worker = int_field j "worker" in
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
    let* b_lease = int_field j "lease" in
    let* b_id = int_field j "id" in
    let* b_tag = str_field j "tag" in
    let* params = field j "params" in
    let* b_params = params_of_json "params" params in
    let* b_round = int_field j "round" in
    let* items = field j "items" in
    let* b_items = items_of_json "items" items in
    let* b_pending = int_field j "pending" in
    Ok (Batch { b_lease; b_id; b_tag; b_params; b_round; b_items; b_pending })
  | "wait" ->
    let* ms = int_field j "ms" in
    Ok (Wait { ms })
  | "done" -> Ok Done
  | "accepted" -> Ok Accepted
  | "stale" -> Ok Stale
  | ty -> Error (Printf.sprintf "message: unknown server type %S" ty)

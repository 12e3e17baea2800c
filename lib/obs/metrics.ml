(* A small handle-based metrics registry: counters, gauges and
   fixed-bucket histograms, rendered as Prometheus text exposition or a
   JSON snapshot.  Handles are returned at registration so the update
   path is a ref bump, not a name lookup.  The registry itself is not
   thread-safe; the telemetry layer funnels all updates through its
   consumer lock. *)

type counter = float ref
type gauge = float ref

type histogram = {
  buckets : float array;      (* upper bounds, ascending; +Inf implicit *)
  counts : int array;         (* length = Array.length buckets + 1 *)
  mutable sum : float;
  mutable total : int;
}

type value = Counter of counter | Gauge of gauge | Histogram of histogram
type entry = { name : string; help : string; v : value }
type t = { mutable entries : entry list (* reversed registration order *) }

let create () = { entries = [] }

let register t name help v =
  if List.exists (fun e -> e.name = name) t.entries then
    invalid_arg (Printf.sprintf "Metrics: %s registered twice" name);
  t.entries <- { name; help; v } :: t.entries

let counter t ~help name =
  let c = ref 0.0 in
  register t name help (Counter c);
  c

let inc c by = c := !c +. by

let gauge t ~help name =
  let g = ref 0.0 in
  register t name help (Gauge g);
  g

let set g v = g := v
let value r = !r

let histogram t ~help ~buckets name =
  let buckets = Array.of_list (List.sort_uniq compare buckets) in
  let h = { buckets; counts = Array.make (Array.length buckets + 1) 0; sum = 0.0; total = 0 } in
  register t name help (Histogram h);
  h

let observe h v =
  let n = Array.length h.buckets in
  let rec slot i = if i >= n || v <= h.buckets.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.total <- h.total + 1

let histogram_count h = h.total
let histogram_sum h = h.sum

let find t name =
  List.find_map
    (fun e ->
      if e.name <> name then None
      else match e.v with Counter c | Gauge c -> Some !c | Histogram _ -> None)
    t.entries

(* --- deltas -------------------------------------------------------------- *)

(* The additive part of a registry, keyed by name: counter values and
   histogram bucket counts plus sums.  Gauges are levels, not deltas, so
   they stay out; so do instruments still at zero, which keeps a
   per-batch image small. *)
let values_to_json t =
  Json.Obj
    (List.fold_left
       (fun acc { name; v; _ } ->
         match v with
         | Counter c when !c <> 0.0 -> (name, Json.Float !c) :: acc
         | Histogram h when h.total > 0 ->
           ( name,
             Json.Obj
               [
                 ( "counts",
                   Json.List
                     (Array.to_list (Array.map (fun n -> Json.Int n) h.counts))
                 );
                 ("sum", Json.Float h.sum);
               ] )
           :: acc
         | Counter _ | Gauge _ | Histogram _ -> acc)
       [] t.entries)

(* Validate the whole image before touching anything, so a bad one
   leaves the registry as it was. *)
let merge_values t j =
  let ( let* ) = Result.bind in
  let bad name what = Error (Printf.sprintf "metric %s: %s" name what) in
  let* fields =
    match j with
    | Json.Obj l -> Ok l
    | _ -> Error "metric values: not an object"
  in
  let update (name, vj) =
    match List.find_opt (fun e -> e.name = name) t.entries with
    | None -> bad name "not registered here"
    | Some { v = Gauge _; _ } -> bad name "a gauge has no delta"
    | Some { v = Counter c; _ } -> (
      match Json.to_float vj with
      | Some d -> Ok (fun () -> c := !c +. d)
      | None -> bad name "counter delta is not a number")
    | Some { v = Histogram h; _ } -> (
      let counts =
        match Json.find vj "counts" with
        | Some (Json.List l) ->
          List.filter_map
            (fun c ->
              match Json.to_int c with Some n when n >= 0 -> Some n | _ -> None)
            l
        | _ -> []
      in
      match Option.bind (Json.find vj "sum") Json.to_float with
      | Some sum when List.length counts = Array.length h.counts ->
        let counts = Array.of_list counts in
        Ok
          (fun () ->
            Array.iteri (fun i n -> h.counts.(i) <- h.counts.(i) + n) counts;
            h.sum <- h.sum +. sum;
            h.total <- h.total + Array.fold_left ( + ) 0 counts)
      | _ -> bad name "histogram delta does not match the bucket layout")
  in
  let* updates =
    List.fold_left
      (fun acc f ->
        let* acc = acc in
        let* u = update f in
        Ok (u :: acc))
      (Ok []) fields
  in
  List.iter (fun u -> u ()) (List.rev updates);
  Ok ()

(* --- rendering ----------------------------------------------------------- *)

(* Prometheus sample values: counters are exact when integral, floats
   keep enough digits to round-trip for our purposes. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let to_prometheus t =
  let b = Buffer.create 1024 in
  List.iter
    (fun { name; help; v } ->
      Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
      match v with
      | Counter c ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" name);
        Buffer.add_string b (Printf.sprintf "%s %s\n" name (num !c))
      | Gauge g ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name);
        Buffer.add_string b (Printf.sprintf "%s %s\n" name (num !g))
      | Histogram h ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" name);
        let cum = ref 0 in
        Array.iteri
          (fun i le ->
            cum := !cum + h.counts.(i);
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (num le) !cum))
          h.buckets;
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name h.total);
        Buffer.add_string b (Printf.sprintf "%s_sum %s\n" name (num h.sum));
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" name h.total))
    (List.rev t.entries);
  Buffer.contents b

let to_json t =
  Json.Obj
    (List.rev_map
       (fun { name; help; v } ->
         let fields =
           match v with
           | Counter c -> [ ("type", Json.String "counter"); ("value", Json.Float !c) ]
           | Gauge g -> [ ("type", Json.String "gauge"); ("value", Json.Float !g) ]
           | Histogram h ->
             [
               ("type", Json.String "histogram");
               ( "buckets",
                 Json.List
                   (List.concat
                      [
                        Array.to_list
                          (Array.mapi
                             (fun i le ->
                               Json.Obj
                                 [ ("le", Json.Float le); ("count", Json.Int h.counts.(i)) ])
                             h.buckets);
                        [
                          Json.Obj
                            [
                              ("le", Json.String "+Inf");
                              ("count", Json.Int h.counts.(Array.length h.buckets));
                            ];
                        ];
                      ]) );
               ("sum", Json.Float h.sum);
               ("count", Json.Int h.total);
             ]
         in
         (name, Json.Obj (("help", Json.String help) :: fields)))
       t.entries)

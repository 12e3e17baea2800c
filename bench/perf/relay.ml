(* A loopback relay between distributed workers and their coordinator,
   for the traced [dist2] rep.  Each worker connects here instead of to
   the coordinator; the relay opens its own connection upstream and
   forwards whole frames, parsing each one with [Proto.recv].  The
   protocol is strict request/reply (every worker message gets exactly
   one coordinator reply), so one thread per connection sees each
   exchange whole and can time it from outside: a request's wait for a
   batch, a result's round trip to its acknowledgement. *)

module Json = Icb_obs.Json
module Proto = Icb.Dist.Proto

type stats = {
  mutable msgs : int;
  mutable c2s_bytes : int;
  mutable s2c_bytes : int;
  mutable wait_replies : int;
  mutable request_wait_ms : float list;
  mutable result_rtt_ms : float list;
}

type t = {
  listen : Unix.file_descr;
  port : int;
  m : Mutex.t;
  st : stats;
  mutable pumps : Thread.t list;
  mutable acceptor : Thread.t option;
}

let port t = t.port

let record t ~kind ~reply ~c2s ~s2c ~ms =
  Mutex.protect t.m (fun () ->
      let st = t.st in
      st.msgs <- st.msgs + 2;
      st.c2s_bytes <- st.c2s_bytes + c2s;
      st.s2c_bytes <- st.s2c_bytes + s2c;
      if reply = Some "wait" then st.wait_replies <- st.wait_replies + 1;
      match kind with
      | Some "request" -> st.request_wait_ms <- ms :: st.request_wait_ms
      | Some "result" -> st.result_rtt_ms <- ms :: st.result_rtt_ms
      | _ -> ())

let channels fd =
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  (ic, oc)

let msg_type j = Option.bind (Json.find j "type") Json.to_str

(* Forward until either side hangs up, then close both so the peer
   notices: the coordinator counts a worker gone only when its upstream
   connection drops.  Byte counts are channel-position deltas around
   each parsed frame. *)
let pump t worker_fd upstream_port =
  let up = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let rec loop (wic, woc) (uic, uoc) =
    let w0 = pos_in wic in
    match Proto.recv wic with
    | Error _ -> ()
    | Ok msg -> (
      let c2s = pos_in wic - w0 in
      let t0 = Layers.now () in
      Proto.send uoc msg;
      let u0 = pos_in uic in
      match Proto.recv uic with
      | Error _ -> ()
      | Ok reply ->
        let ms = float_of_int (Layers.now () - t0) /. 1e6 in
        record t ~kind:(msg_type msg) ~reply:(msg_type reply) ~c2s
          ~s2c:(pos_in uic - u0) ~ms;
        Proto.send woc reply;
        loop (wic, woc) (uic, uoc))
  in
  (try
     Unix.connect up (Unix.ADDR_INET (Unix.inet_addr_loopback, upstream_port));
     loop (channels worker_fd) (channels up)
   with Sys_error _ | Unix.Unix_error _ -> ());
  (try Unix.close up with Unix.Unix_error _ -> ());
  try Unix.close worker_fd with Unix.Unix_error _ -> ()

(* Accept up to [conns] workers on an ephemeral loopback port. *)
let create ~upstream_port ~conns =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen conns;
  let port =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let t =
    {
      listen;
      port;
      m = Mutex.create ();
      st =
        { msgs = 0; c2s_bytes = 0; s2c_bytes = 0; wait_replies = 0;
          request_wait_ms = []; result_rtt_ms = [] };
      pumps = [];
      acceptor = None;
    }
  in
  let accept () =
    try
      for _ = 1 to conns do
        let fd, _ = Unix.accept listen in
        let th = Thread.create (fun () -> pump t fd upstream_port) () in
        Mutex.protect t.m (fun () -> t.pumps <- th :: t.pumps)
      done
    with Unix.Unix_error _ -> ()
  in
  t.acceptor <- Some (Thread.create accept ());
  t

(* Stop accepting (a worker that never connected must not hang the
   rep), then wait for every connection to wind down. *)
let finish t =
  (try Unix.shutdown t.listen Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Option.iter Thread.join t.acceptor;
  List.iter Thread.join (Mutex.protect t.m (fun () -> t.pumps));
  (try Unix.close t.listen with Unix.Unix_error _ -> ());
  t.st

(** Just enough HTTP/1.1 to serve [GET /metrics] and [GET /status] from
    the distributed coordinator's listening socket — request-line plus
    headers in, one [Connection: close] response out.  Not a web server:
    no keep-alive, no chunking, no body parsing. *)

type request = {
  meth : string;  (** upper-cased, e.g. ["GET"] *)
  path : string;  (** as sent, query string included *)
}

val read_request : in_channel -> (request, string) result
(** Parse the request line and consume the header block.  [Error] on
    malformed, truncated or unreadable input, or on a request line
    longer than 8 KiB; a longer header line ends the block.  Never
    raises.  Reading is bounded in memory,
    not in time: a caller facing untrusted peers waits for the whole head
    first. *)

val respond :
  out_channel ->
  ?status:int * string ->
  ?head:bool ->
  content_type:string ->
  string ->
  unit
(** Write a complete response (default status [200 OK]) with
    [Content-Length] and [Connection: close], then flush.  With
    [~head:true] (the answer to a [HEAD] request) the headers, including
    the body's [Content-Length], are sent without the body.  The caller
    closes the socket. *)

val not_found : ?head:bool -> out_channel -> unit
val method_not_allowed : out_channel -> unit

type request = { meth : string; path : string }

(* Longest request or header line accepted, terminator excluded. *)
let max_line = 8192

(* One line without its CRLF/LF; [None] at end of input, on a failed read
   (a reset socket), or when the line runs past [max_line], so a peer
   cannot make us buffer without bound. *)
let read_line_crlf ic =
  let b = Buffer.create 128 in
  let rec go () =
    match input_char ic with
    | '\n' ->
      let n = Buffer.length b in
      Some
        (if n > 0 && Buffer.nth b (n - 1) = '\r' then Buffer.sub b 0 (n - 1)
         else Buffer.contents b)
    | _ when Buffer.length b >= max_line -> None
    | c ->
      Buffer.add_char b c;
      go ()
    | exception (End_of_file | Sys_error _) -> None
  in
  go ()

let read_request ic =
  match read_line_crlf ic with
  | None -> Error "connection closed before a whole request line"
  | Some line -> (
    match String.split_on_char ' ' line with
    | [ meth; path; _version ] ->
      (* drain the header block; we act on the request line alone *)
      let rec drain () =
        match read_line_crlf ic with
        | None | Some "" -> ()
        | Some _ -> drain ()
      in
      drain ();
      Ok { meth = String.uppercase_ascii meth; path }
    | _ -> Error (Printf.sprintf "malformed request line %S" line))

let respond oc ?(status = (200, "OK")) ?(head = false) ~content_type body =
  let code, reason = status in
  Printf.fprintf oc
    "HTTP/1.1 %d %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n"
    code reason content_type (String.length body);
  if not head then output_string oc body;
  flush oc

let not_found ?head oc =
  respond oc ~status:(404, "Not Found") ?head ~content_type:"text/plain"
    "not found\n"

let method_not_allowed oc =
  respond oc ~status:(405, "Method Not Allowed") ~content_type:"text/plain"
    "method not allowed\n"

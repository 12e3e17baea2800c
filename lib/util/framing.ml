type section = Magic | Version | Digest | Length | Payload

type error =
  | Cannot_open of string
  | Truncated of section
  | Bad_magic
  | Bad_version of int
  | Negative_length
  | Digest_mismatch

let write_frame oc ~magic ~version ~payload =
  output_string oc magic;
  output_binary_int oc version;
  output_string oc (Digest.string payload);
  output_binary_int oc (String.length payload);
  output_string oc payload

(* Payloads are read in chunks of this size, so memory follows the bytes
   actually received rather than the length a peer declares. *)
let chunk = 65536

(* A read that fails (a reset socket, a directory) ends the input just
   as end-of-file does: the frame is truncated at that section. *)
let read_frame ?(check_version = fun _ -> true) ic ~magic =
  let ( let* ) = Result.bind in
  let read_exactly n section =
    let b = Buffer.create (min n chunk) in
    let rec go left =
      if left = 0 then Ok (Buffer.contents b)
      else
        let k = min left chunk in
        match Buffer.add_channel b ic k with
        | () -> go (left - k)
        | exception (End_of_file | Sys_error _) -> Error (Truncated section)
    in
    go n
  in
  let read_int section =
    match input_binary_int ic with
    | v -> Ok v
    | exception (End_of_file | Sys_error _) -> Error (Truncated section)
  in
  let* m = read_exactly (String.length magic) Magic in
  if m <> magic then Error Bad_magic
  else
    let* v = read_int Version in
    if not (check_version v) then Error (Bad_version v)
    else
      let* digest = read_exactly 16 Digest in
      let* len = read_int Length in
      if len < 0 then Error Negative_length
      else
        let* payload = read_exactly len Payload in
        if Stdlib.Digest.string payload <> digest then Error Digest_mismatch
        else Ok (v, payload)

let write_file ~path ~magic ~version ~payload =
  let tmp =
    Filename.temp_file
      ~temp_dir:(Filename.dirname path)
      (Filename.basename path) ".tmp"
  in
  let oc = open_out_bin tmp in
  (try
     write_frame oc ~magic ~version ~payload;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let read_file ?check_version ~path ~magic () =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Cannot_open msg)
  | ic when (try Sys.is_directory path with Sys_error _ -> false) ->
    (* opening a directory succeeds; only its first read fails *)
    close_in_noerr ic;
    Error (Cannot_open (path ^ ": Is a directory"))
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> read_frame ?check_version ic ~magic)

let message ~what = function
  | Cannot_open msg -> Printf.sprintf "cannot open %s: %s" what msg
  | Truncated section ->
    Printf.sprintf "%s is truncated (while reading %s)" what
      (match section with
      | Magic -> "the magic header"
      | Version -> "the version"
      | Digest -> "the payload digest"
      | Length -> "the length"
      | Payload -> "the payload")
  | Bad_magic -> Printf.sprintf "%s has a bad magic header" what
  | Bad_version v ->
    Printf.sprintf "%s has format version %d, which this build does not read"
      what v
  | Negative_length -> Printf.sprintf "%s declares a negative length" what
  | Digest_mismatch ->
    Printf.sprintf
      "%s fails its payload checksum (it was damaged after being written)"
      what

let unmarshal ~what payload =
  match Marshal.from_string payload 0 with
  | v -> Ok v
  | exception (Failure msg | Invalid_argument msg) ->
    Error (Printf.sprintf "%s payload does not unmarshal: %s" what msg)

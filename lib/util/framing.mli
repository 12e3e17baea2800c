(** MD5-checksum + length framing shared by checkpoint files, repro
    bundles and the distributed wire protocol.

    A frame is
    {v
      bytes 0..m-1   caller-chosen magic (m = String.length magic)
      bytes m..m+3   format version (big-endian int, output_binary_int)
      next 16        MD5 digest of the payload
      next 4         payload length (big-endian int)
      rest           payload bytes
    v}

    The one reader of the frame: [read_frame]/[read_file] never raise,
    {!message} words their errors and {!unmarshal} decodes a Marshal
    payload, so a caller only picks its own exception or variant. *)

type section = Magic | Version | Digest | Length | Payload

type error =
  | Cannot_open of string  (** [Sys_error] message from [open_in_bin] *)
  | Truncated of section
      (** input ended or failed (a reset socket) in this section *)
  | Bad_magic
  | Bad_version of int     (** rejected by [check_version] *)
  | Negative_length
  | Digest_mismatch

(** Append one frame to [oc] (set to binary mode by the caller). *)
val write_frame :
  out_channel -> magic:string -> version:int -> payload:string -> unit

(** Read one frame, validating magic and digest.  [check_version]
    (default: accept all) rejects unsupported versions before the
    payload is read, so a bad version is reported even on a file whose
    payload is also damaged.  Returns [(version, payload)].  The payload
    is read in chunks, so memory follows the bytes that arrive, not the
    length the header declares. *)
val read_frame :
  ?check_version:(int -> bool) ->
  in_channel ->
  magic:string ->
  (int * string, error) result

(** Write a single-frame file: temp file in the target's directory,
    then atomic rename, so a killed writer never leaves a half-written
    file under [path]. *)
val write_file :
  path:string -> magic:string -> version:int -> payload:string -> unit

val read_file :
  ?check_version:(int -> bool) ->
  path:string ->
  magic:string ->
  unit ->
  (int * string, error) result

val message : what:string -> error -> string
(** One line naming [what] was read (["checkpoint c.ckpt"], ["protocol
    frame"]) and, for a truncation, the section. *)

val unmarshal : what:string -> string -> ('a, string) result
(** Decode a Marshal payload read from a frame.  Anything
    [Marshal.from_string] rejects, a payload shorter than a Marshal
    header included, is an [Error] naming [what].  The frame's digest
    only proves the bytes are the ones written: the caller fixes ['a],
    and a crafted payload with a recomputed digest is trusted as far as
    Marshal trusts it. *)

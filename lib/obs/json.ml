(* A minimal JSON tree, printer and parser — just enough for the
   telemetry trace (JSONL), the metrics snapshot, the bench output and
   the distributed wire protocol.  The project deliberately has no
   external JSON dependency.  Strings are byte strings: the printer
   escapes only what JSON forces it to (quotes, backslash, control
   characters) and passes other bytes through verbatim, and the parser
   reverses both that and the escapes other producers use (strict
   4-hex-digit \uXXXX, surrogate pairs) — so [parse (to_string v) = v]
   for every value, a property test_obs.ml checks. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- printing ------------------------------------------------------------ *)

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Floats must stay valid JSON ("1." or "nan" are not): integers render
   with a forced decimal point, non-finite values degrade to null. *)
let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" f)
  else Buffer.add_string b (Printf.sprintf "%.12g" f)

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | String s -> add_escaped b s
  | List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        add b x)
      xs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_escaped b k;
        Buffer.add_char b ':';
        add b v)
      fields;
    Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 256 in
  add b t;
  Buffer.contents b

(* --- parsing ------------------------------------------------------------- *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "%s at offset %d" m !pos))) fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail "expected %c" c
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  (* UTF-8 of a \uXXXX scalar (or a surrogate-pair supplement) *)
  let add_scalar b u =
    if u < 0x80 then Buffer.add_char b (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  (* strict 4-hex-digit parse: [int_of_string_opt ("0x" ^ hex)] would
     accept signs and underscores JSON forbids *)
  let hex4 off =
    let digit i =
      match s.[off + i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> raise Exit
    in
    match (digit 0, digit 1, digit 2, digit 3) with
    | d0, d1, d2, d3 -> Some ((d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3)
    | exception Exit -> None
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'; incr pos
             | '\\' -> Buffer.add_char b '\\'; incr pos
             | '/' -> Buffer.add_char b '/'; incr pos
             | 'n' -> Buffer.add_char b '\n'; incr pos
             | 'r' -> Buffer.add_char b '\r'; incr pos
             | 't' -> Buffer.add_char b '\t'; incr pos
             | 'b' -> Buffer.add_char b '\b'; incr pos
             | 'f' -> Buffer.add_char b '\012'; incr pos
             | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape";
               (match hex4 (!pos + 1) with
               | None -> fail "bad \\u escape %S" (String.sub s (!pos + 1) 4)
               | Some u when u >= 0xD800 && u <= 0xDBFF ->
                 (* high surrogate: a following \uDC00..\uDFFF escape
                    combines into one supplementary-plane scalar (the
                    only way JSON spells characters above U+FFFF);
                    unpaired surrogates fall through as-is, keeping the
                    parser total on anything [to_string] emits *)
                 let lo =
                   if
                     !pos + 10 < n
                     && s.[!pos + 5] = '\\'
                     && s.[!pos + 6] = 'u'
                   then hex4 (!pos + 7)
                   else None
                 in
                 (match lo with
                 | Some l when l >= 0xDC00 && l <= 0xDFFF ->
                   add_scalar b
                     (0x10000 + (((u - 0xD800) lsl 10) lor (l - 0xDC00)));
                   pos := !pos + 11
                 | _ ->
                   add_scalar b u;
                   pos := !pos + 5)
               | Some u ->
                 add_scalar b u;
                 pos := !pos + 5)
             | c -> fail "bad escape \\%c" c);
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
        is_float := true;
        true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number %S" tok
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let acc = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          incr pos;
          acc := parse_value () :: !acc;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !acc)
      end
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let acc = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          incr pos;
          acc := field () :: !acc;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !acc)
      end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- accessors ----------------------------------------------------------- *)

let find t key = match t with Obj fields -> List.assoc_opt key fields | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

(* --- typed field reads --------------------------------------------------- *)

let field t key =
  match find t key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" key)

let typed what conv t key =
  Result.bind (field t key) (fun v ->
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S is not %s" key what))

let int = typed "an int" to_int
let float = typed "a number" to_float
let string = typed "a string" to_str
let bool = typed "a bool" to_bool
let list = typed "a list" (function List l -> Some l | _ -> None)

let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match f x with Ok y -> go (y :: acc) rest | Error m -> Error m)
  in
  go [] l

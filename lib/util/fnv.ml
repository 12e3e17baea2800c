type t = int64

let basis = 0xcbf29ce484222325L

let prime = 0x100000001b3L

(* The FNV-1a byte update, the only one: every function below extends a
   hash through it.  Small enough to inline, so a loop over a local
   reference keeps the hash unboxed. *)
let[@inline] step h b = Int64.mul (Int64.logxor h (Int64.of_int b)) prime

let char h c = step h (Char.code c)

let string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := step !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* Unrolled, so that it inlines and a caller keeps the hash unboxed. *)
let[@inline] int h n =
  let h = step h (n land 0xff) in
  let h = step h ((n lsr 8) land 0xff) in
  let h = step h ((n lsr 16) land 0xff) in
  let h = step h ((n lsr 24) land 0xff) in
  let h = step h ((n lsr 32) land 0xff) in
  let h = step h ((n lsr 40) land 0xff) in
  let h = step h ((n lsr 48) land 0xff) in
  step h ((n lsr 56) land 0xff)

let int64 h n =
  let h = ref h in
  for i = 0 to 7 do
    h := step !h (Int64.to_int (Int64.shift_right_logical n (8 * i)) land 0xff)
  done;
  !h

let hash_string s = string basis s

let combine_commutative = Int64.add

let to_hex h = Printf.sprintf "%016Lx" h

(* The running hash lives in 8 bytes read and written through the raw
   64-bit primitives, which the compiler keeps unboxed: an [int64] in a
   mutable field or a captured reference would be boxed on every byte. *)
type acc = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let acc () =
  let a = Bytes.create 8 in
  set a 0 basis;
  a

let add_char a c = set a 0 (step (get a 0) (Char.code c))

let value a = get a 0

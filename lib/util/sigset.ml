(* Slot [i] is bytes [8i, 8i + 8) of [slots], read and written through the
   unboxed 64-bit primitives.  [0L] marks a free slot, so the signature
   [0L] itself is a separate flag.  The table doubles when it would pass
   half full, which keeps probe sequences short. *)
type t = {
  mutable slots : Bytes.t;
  mutable bits : int;        (* 2^bits slots *)
  mutable count : int;       (* non-zero members *)
  mutable has_zero : bool;
  init_bits : int;
}

let fresh bits = Bytes.make (8 lsl bits) '\000'

let create n =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * n do incr bits done;
  { slots = fresh !bits; bits = !bits; count = 0; has_zero = false;
    init_bits = !bits }

(* Fibonacci hashing: the top [bits] bits of the product depend on every
   bit of the key, so keys that agree in their low bits spread out. *)
let[@inline] home bits k =
  Int64.to_int
    (Int64.shift_right_logical (Int64.mul k 0x9E3779B97F4A7C15L) (64 - bits))

(* The slot holding [k], or the free slot where the probe for it ends.
   Comparisons are at type [int64], so they compile to unboxed machine
   comparisons. *)
let[@inline] find slots bits k =
  let mask = (1 lsl bits) - 1 in
  let i = ref (home bits k) in
  while
    let v = Bytes.get_int64_ne slots (!i lsl 3) in
    not (v = k || v = 0L)
  do
    i := (!i + 1) land mask
  done;
  !i

let mem t k =
  if k = 0L then t.has_zero
  else
    Bytes.get_int64_ne t.slots (find t.slots t.bits k lsl 3) <> 0L

let grow t =
  let old = t.slots and old_bits = t.bits in
  let bits = old_bits + 1 in
  let slots = fresh bits in
  for i = 0 to (1 lsl old_bits) - 1 do
    let k = Bytes.get_int64_ne old (i lsl 3) in
    if k <> 0L then Bytes.set_int64_ne slots (find slots bits k lsl 3) k
  done;
  t.slots <- slots;
  t.bits <- bits

let add t k =
  if k = 0L then t.has_zero <- true
  else begin
    let o = find t.slots t.bits k lsl 3 in
    if Bytes.get_int64_ne t.slots o = 0L then begin
      Bytes.set_int64_ne t.slots o k;
      t.count <- t.count + 1;
      if 2 * t.count > 1 lsl t.bits then grow t
    end
  end

let length t = t.count + Bool.to_int t.has_zero

let iter f t =
  if t.has_zero then f 0L;
  let slots = t.slots in
  for i = 0 to (1 lsl t.bits) - 1 do
    let k = Bytes.get_int64_ne slots (i lsl 3) in
    if k <> 0L then f k
  done

let reset t =
  t.slots <- fresh t.init_bits;
  t.bits <- t.init_bits;
  t.count <- 0;
  t.has_zero <- false

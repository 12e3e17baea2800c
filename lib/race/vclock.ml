(* Component [i] is thread [i]'s.  Invariant: the last component is
   non-zero, so structural equality coincides with clock equality and
   [length a > length b] already refutes [leq a b]. *)
type t = int array

let empty = [||]

let get c tid = if tid >= 0 && tid < Array.length c then c.(tid) else 0

let set c tid n =
  if tid < 0 || n < 0 then
    invalid_arg "Vclock.set: negative thread or component";
  let len = Array.length c in
  if tid < len then
    if c.(tid) = n then c
    else if n = 0 && tid = len - 1 then begin
      (* dropping the last component: trim the zeros it uncovers *)
      let k = ref tid in
      while !k > 0 && c.(!k - 1) = 0 do decr k done;
      Array.sub c 0 !k
    end
    else begin
      let c = Array.copy c in
      c.(tid) <- n;
      c
    end
  else if n = 0 then c
  else begin
    let c' = Array.make (tid + 1) 0 in
    Array.blit c 0 c' 0 len;
    c'.(tid) <- n;
    c'
  end

let inc c tid = set c tid (get c tid + 1)

let leq a b =
  let la = Array.length a in
  la <= Array.length b
  &&
  let rec go i = i >= la || (a.(i) <= b.(i) && go (i + 1)) in
  go 0

(* The common acquire brings in nothing new: return the dominating
   argument itself rather than a copy. *)
let join a b =
  if leq b a then a
  else if leq a b then b
  else begin
    let long, short =
      if Array.length a >= Array.length b then (a, b) else (b, a)
    in
    let r = Array.copy long in
    Array.iteri (fun i n -> if n > r.(i) then r.(i) <- n) short;
    r
  end

let equal a b =
  let la = Array.length a in
  la = Array.length b
  &&
  let rec go i = i >= la || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let pp fmt c =
  Format.fprintf fmt "{";
  let first = ref true in
  Array.iteri
    (fun tid n ->
      if n <> 0 then begin
        if not !first then Format.fprintf fmt ", ";
        first := false;
        Format.fprintf fmt "%d:%d" tid n
      end)
    c;
  Format.fprintf fmt "}"

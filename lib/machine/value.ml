type t =
  | Int of int
  | Bool of bool
  | Handle of int

let null = Handle (-1)

let zero = Int 0

let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | Handle x, Handle y -> x = y
  | (Int _ | Bool _ | Handle _), _ -> false

let compare a b =
  let rank = function Int _ -> 0 | Bool _ -> 1 | Handle _ -> 2 in
  match a, b with
  | Int x, Int y -> Stdlib.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Handle x, Handle y -> Stdlib.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let to_string = function
  | Int n -> string_of_int n
  | Bool b -> string_of_bool b
  | Handle h -> if h < 0 then "null" else Printf.sprintf "&%d" h

let pp fmt v = Format.pp_print_string fmt (to_string v)

let truthy = function
  | Bool b -> b
  | Int n -> n <> 0
  | Handle h -> h >= 0

let as_int = function
  | Int n -> n
  | v -> invalid_arg ("Value.as_int: " ^ to_string v)

(* The emission guard the search hot path holds on to.  [Null] is the
   disabled sink: [emit] on it is a single match and an immediate
   return, with the event payload never allocated when call sites guard
   construction with [enabled] — that is the whole zero-cost-when-off
   contract. *)

type t =
  | Null
  | Live of {
      worker : int;
      clock : unit -> float;          (* run-relative monotonic seconds *)
      push : Event.envelope -> unit;
    }

let null = Null
let live ~worker ~clock ~push = Live { worker; clock; push }
let enabled = function Null -> false | Live _ -> true

let emit t ev =
  match t with
  | Null -> ()
  | Live { worker; clock; push } -> push { Event.ts = clock (); worker; ev }

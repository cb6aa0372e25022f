(* Float-interval shadows of exact rational polynomials.

   The filtered backend evaluates signs on these outward-rounded interval
   coefficients first and only falls back to exact arithmetic when the
   result straddles zero.  Shadows are memoized: the sweep evaluates the
   same handful of difference curves at many instants, and Qpoly values are
   immutable with canonical (hence hashable) rational coefficients, so a
   structural hash table is a sound cache key. *)

module Q = Moq_numeric.Rat
module IV = Moq_numeric.Fintval

let cache : (Qpoly.t, IV.t array) Hashtbl.t = Hashtbl.create 512

(* Bound the cache so adversarial workloads (every update a fresh curve)
   cannot leak; resetting just loses memoization, never soundness.  One
   sweep's working set — the differences of adjacent curves — fits many
   times over; a larger bound only holds a server's heap up (a stream of
   one-shot queries fills any bound with differences never seen again). *)
let max_entries = 512

let of_qpoly (p : Qpoly.t) : IV.t array =
  match Hashtbl.find_opt cache p with
  | Some s -> s
  | None ->
    let s = Array.of_list (List.map IV.of_rat (Qpoly.to_list p)) in
    if Hashtbl.length cache >= max_entries then Hashtbl.reset cache;
    Hashtbl.add cache p s;
    s

(* Interval enclosure of p(x) for any real x in the interval. *)
let eval_at (p : Qpoly.t) (x : IV.t) : IV.t = IV.eval (of_qpoly p) x

(* Interval enclosure of the exact coefficient. *)
let coeff (p : Qpoly.t) i : IV.t =
  let s = of_qpoly p in
  if i < Array.length s then s.(i) else IV.point 0.0

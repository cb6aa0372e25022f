(* A counting and timing wrapper around [Backend.Exact], used only by the
   traced replica.  Every call of the wrapped functions is counted in one
   of three buckets; while [timing] is on it is also timed.  The buckets:

   - [root]: root finding and isolation (first_root_after,
     first_root_at_or_after, all_roots, between, scalar_after);
   - [sign]: signs and instant comparisons (sign_at_instant,
     sign_after_instant, compare_instant, compare_instant_scalar);
   - [pw]: piecewise lookup and evaluation (PW.defined_at, PW.eval,
     PW.piece_covering).

   Types are those of [Exact], so instants render byte for byte as the
   server renders them. *)

module X = Moq_core.Backend.Exact

type bucket = { mutable calls : int; mutable secs : float }

let root = { calls = 0; secs = 0. }
let sign = { calls = 0; secs = 0. }
let pw = { calls = 0; secs = 0. }
let buckets = [ ("root", root); ("sign", sign); ("pw", pw) ]
let timing = ref false

let reset () =
  List.iter
    (fun (_, b) ->
      b.calls <- 0;
      b.secs <- 0.)
    buckets

(* Seconds spent in all buckets so far: spans subtract it to get self time. *)
let total_secs () = root.secs +. sign.secs +. pw.secs

let[@inline] count b f =
  b.calls <- b.calls + 1;
  if not !timing then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    b.secs <- b.secs +. (Unix.gettimeofday () -. t0);
    r
  end

module B :
  Moq_core.Backend.S
    with type P.t = X.P.t
     and type P.F.t = X.P.F.t
     and type PW.t = X.PW.t
     and type instant = X.instant = struct
  module P = X.P

  module PW = struct
    include X.PW

    let defined_at c s = count pw (fun () -> X.PW.defined_at c s)
    let eval c s = count pw (fun () -> X.PW.eval c s)
    let piece_covering c s = count pw (fun () -> X.PW.piece_covering c s)
  end

  type instant = X.instant

  let instant_of_scalar = X.instant_of_scalar
  let compare_instant a b = count sign (fun () -> X.compare_instant a b)
  let compare_instant_scalar i s = count sign (fun () -> X.compare_instant_scalar i s)
  let sign_at_instant p i = count sign (fun () -> X.sign_at_instant p i)
  let sign_after_instant p i = count sign (fun () -> X.sign_after_instant p i)
  let first_root_after p i = count root (fun () -> X.first_root_after p i)
  let first_root_at_or_after p s = count root (fun () -> X.first_root_at_or_after p s)
  let all_roots p = count root (fun () -> X.all_roots p)
  let between a b = count root (fun () -> X.between a b)
  let scalar_after i ~upto = count root (fun () -> X.scalar_after i ~upto)
  let scalar_of_rat = X.scalar_of_rat
  let curve_of_qpiece = X.curve_of_qpiece
  let instant_to_float = X.instant_to_float
  let pp_instant = X.pp_instant
end

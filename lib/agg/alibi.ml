(** The alibi query: "could objects o1 and o2 have met within distance d
    during [t1, t2]?" — the canonical hard quantifier-elimination instance
    for the piecewise-linear MOD model (Othman–Kuijpers–Grimson, PAPERS.md).

    In this data model no elimination is needed: the squared inter-object
    distance is a continuous piecewise quadratic, so the query reduces to
    "is [|p1(t) − p2(t)|² <= d²] somewhere on the window ∩ common
    lifetime", decided exactly on the algebraic kernel: the verdict is the
    first of the {!Within} intervals of the squared distance, and the
    witness returned is its start — the {e earliest} meeting instant, an
    exact algebraic number. *)

module Q = Moq_numeric.Rat
module T = Moq_mod.Trajectory
module Gdist = Moq_core.Gdist

module Make (B : Moq_core.Backend.S) = struct
  module W = Within.Make (B)

  type verdict =
    | No_meet
    | Meet of B.instant  (** earliest instant with [|p1 − p2| <= d] *)

  let meets = function No_meet -> false | Meet _ -> true

  let decide ~(o1 : T.t) ~(o2 : T.t) ~(d : Q.t) ~(lo : Q.t) ~(hi : Q.t) :
      verdict =
    if Q.compare lo hi > 0 then invalid_arg "Alibi.decide: lo > hi";
    let birth = Q.max (T.birth o1) (T.birth o2) in
    let death =
      match T.death o1, T.death o2 with
      | None, None -> None
      | Some e, None | None, Some e -> Some e
      | Some e1, Some e2 -> Some (Q.min e1 e2)
    in
    let disjoint_lifetimes =
      match death with Some e -> Q.compare birth e >= 0 | None -> false
    in
    if disjoint_lifetimes then No_meet
    else
    (* the earliest instant of the first interval of the window on which
       |p1(t) − p2(t)|² <= d², over the common lifetime *)
    match
      W.intervals (Gdist.curve (Gdist.euclidean_sq ~gamma:o2) o1) ~bound:(Q.mul d d) ~lo ~hi
    with
    | [] -> No_meet
    | iv :: _ -> Meet iv.W.l

  (* Dense-sampling refutation check, for the property suite: every sampled
     instant where the objects are within [d] must be at or after the
     verdict's witness; a [No_meet] verdict must have no such sample. *)
  let sample_within ~(o1 : T.t) ~(o2 : T.t) ~(d : Q.t) (t : Q.t) : bool =
    match T.position o1 t, T.position o2 t with
    | Some p1, Some p2 ->
      Q.compare (Moq_geom.Vec.Qvec.dist2 p1 p2) (Q.mul d d) <= 0
    | _ -> false
end

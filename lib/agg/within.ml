(** Within-intervals: the closed stretches of a time window on which a
    curve stays at or below a bound.

    The curves this serves are squared distances between linearly moving
    points — to a fixed place of interest ({!Agg}) or to a second object
    ({!Alibi}) — so every piece is a convex polynomial of degree at most
    two, and its part at or below the bound is one closed interval or
    nothing.  The exact rational minimum of a piece over its span, taken at
    its clamped vertex, decides which: above the bound, the piece adds
    nothing and no root is isolated; otherwise the interval runs from the
    piece start (or the root before the vertex) to the piece end (or the
    root after it), found with the backend's [first_root_at_or_after]. *)

module Q = Moq_numeric.Rat
module QP = Moq_poly.Qpoly
module Qpiece = Moq_poly.Piecewise.Qpiece

module Make (B : Moq_core.Backend.S) = struct
  type interval = { l : B.instant; r : B.instant }  (** closed, [l <= r] *)

  let instant_of_q q = B.instant_of_scalar (B.scalar_of_rat q)

  (* Where the convex polynomial [q] is least on [a, b]. *)
  let argmin q ~a ~b =
    match QP.degree q with
    | 2 when Q.sign (QP.coeff q 2) > 0 ->
      let v = Q.neg (Q.div (QP.coeff q 1) (Q.mul (Q.of_int 2) (QP.coeff q 2))) in
      Q.max a (Q.min b v)
    | 1 -> if Q.sign (QP.coeff q 1) > 0 then a else b
    | d when d <= 0 -> a
    | _ -> invalid_arg "Within: a curve piece is not a convex quadratic"

  (* The part of [a, b] where [q <= 0] ([p] is [q] on the backend). *)
  let piece q p ~a ~b =
    let v = argmin q ~a ~b in
    if Q.sign (QP.eval q v) > 0 then None
    else begin
      let root_from s =
        match B.first_root_at_or_after p (B.scalar_of_rat s) with
        | Some r -> r
        | None -> assert false (* [q] changes sign between [s] and the vertex *)
      in
      let l = if Q.sign (QP.eval q a) <= 0 then instant_of_q a else root_from a in
      let r = if Q.sign (QP.eval q b) <= 0 then instant_of_q b else root_from v in
      Some { l; r }
    end

  (* Append [iv] to the ascending intervals [rev_acc] (latest first),
     merging when it starts where the latest one ends. *)
  let push rev_acc iv =
    match rev_acc with
    | last :: rest when B.compare_instant last.r iv.l >= 0 -> { last with r = iv.r } :: rest
    | _ -> iv :: rev_acc

  (** The maximal closed intervals of [[lo, hi]] ∩ domain on which [c] is at
      most [bound], ascending.  An empty result means every piece's exact
      minimum lay above the bound: no root was isolated. *)
  let intervals (c : Qpiece.t) ~(bound : Q.t) ~(lo : Q.t) ~(hi : Q.t) : interval list =
    let c = Qpiece.map (fun p -> QP.sub p (QP.constant bound)) c in
    let bc = B.PW.pieces (B.curve_of_qpiece c) in
    let rec go acc = function
      | [] -> List.rev acc
      | ((s, q), (_, p)) :: rest ->
        let e =
          match rest with ((s', _), _) :: _ -> Some s' | [] -> Qpiece.stop c
        in
        let a = Q.max s lo and b = match e with Some e -> Q.min e hi | None -> hi in
        if Q.compare a b > 0 then go acc rest
        else
          let acc = match piece q p ~a ~b with Some iv -> push acc iv | None -> acc in
          go acc rest
    in
    go [] (List.combine (Qpiece.pieces c) bc)
end

(** The within-distance operator ("all flights within 50 km", Example 11):
    the query constant is swept as a constant curve; the answer at any
    instant is the set of object curves ranked below it, read off the order
    structure in O(log N) per support change. *)

module Oid = Moq_mod.Oid
module Q = Moq_numeric.Rat
module DB = Moq_mod.Mobdb
module Sink = Moq_obs.Sink

module Make (B : Backend.S) = struct
  module K = Knn.Make (B)
  module E = K.E
  module TL = E.TL

  type result = {
    timeline : TL.t;
    stats : E.stats;
    hot : Explain.hot list;  (** per-object cost attribution, hottest first *)
  }

  (* Objects at or below the bound.  On open spans the rank of the bound
     entry suffices: an object curve identically equal to the bound ties and
     is ordered before the constant (Obj < Cst in the stable label order),
     so <=-semantics still include it.  At instants we additionally take the
     run of entries tied with the bound, which sit just after it. *)
  let run_obs ~(sink : Sink.t) ~(db : DB.t) ~(gdist : Gdist.t) ~(bound : Q.t)
      ~(lo : Q.t) ~(hi : Q.t) : result =
    let entries =
      (E.Cst bound, B.PW.constant ~start:(B.scalar_of_rat lo) (B.scalar_of_rat bound))
      :: K.entries ~db ~gdist
    in
    let eng =
      E.create ~sink ~start:(B.scalar_of_rat lo) ~horizon:(B.scalar_of_rat hi) entries
    in
    let bound_entry () =
      match E.find eng (E.Cst bound) with
      | Some e -> e
      | None -> invalid_arg "Range_query: bound curve missing"
    in
    let answer_span _ _ =
      K.set_of_entries (E.first_n eng (E.rank_of eng (bound_entry ())))
    in
    let answer_at i =
      let be = bound_entry () in
      let r = E.rank_of eng be in
      let tied c b = E.C.diff_sign_at c b i = 0 in
      K.set_of_entries (K.tied_run eng (r + 1) ~tied (E.curve be) (E.first_n eng r))
    in
    let pieces =
      E.timeline eng ~lo ~hi ~span:answer_span ~at:answer_at
    in
    { timeline = TL.simplify pieces; stats = E.stats eng; hot = E.hot_objects eng }

  let run ~db ~gdist ~bound ~lo ~hi = run_obs ~sink:Sink.noop ~db ~gdist ~bound ~lo ~hi
end

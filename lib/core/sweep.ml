(** Past-query evaluation (paper, Theorem 4).

    Sweep the time line across the query interval: sort the curves once,
    then process the O(m) support-change events, evaluating the answer only
    on the spans and instants between them (Lemma 8).  Total
    O((m + N) log N) object-list work plus one answer evaluation per
    support change. *)

module Oid = Moq_mod.Oid
module DB = Moq_mod.Mobdb
module Sink = Moq_obs.Sink

module Make (B : Backend.S) = struct
  module E = Engine.Make (B)
  module P = Problem.Make (B)
  module S = P.S
  module TL = E.TL

  type result = {
    timeline : TL.t;
    stats : E.stats;
    support_changes : int;  (** the paper's m *)
    hot : Explain.hot list;  (** per-object cost attribution, hottest first *)
  }

  let interval_bounds (q : Fof.query) =
    match Fof.Interval.lo q.Fof.interval, Fof.Interval.hi q.Fof.interval with
    | Some lo, Some hi -> (lo, hi)
    | _ -> invalid_arg "Sweep: past queries need a bounded interval"

  let run_obs ~(sink : Sink.t) ~(db : DB.t) ~(gdist : Gdist.t)
      ~(query : Fof.query) : result =
    Sink.count sink "moq_query_past_total" 1;
    Sink.time sink "moq_query_past_seconds" @@ fun () ->
    let lo, hi = interval_bounds query in
    let p = P.create ~db ~gdist ~tts:(P.time_terms query) ~istart:lo in
    let eng =
      E.create ~sink ~start:(B.scalar_of_rat lo)
        ~horizon:(B.scalar_of_rat hi) (P.entry_list p ~consts:(Fof.constants query))
    in
    let ctx = P.snapshot_ctx p in
    let answer i = S.answer_at ctx query i in
    let pieces =
      E.timeline eng ~lo ~hi ~at:answer
        ~span:(fun a b -> answer (B.instant_of_scalar (B.between a b)))
    in
    let stats = E.stats eng in
    { timeline = TL.simplify pieces; stats;
      support_changes = stats.E.crossings + stats.E.births + stats.E.deaths;
      hot = E.hot_objects eng }

  let run ~db ~gdist ~query = run_obs ~sink:Sink.noop ~db ~gdist ~query
end

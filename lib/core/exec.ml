module Q = Moq_numeric.Rat
module DB = Moq_mod.Mobdb
module Sink = Moq_obs.Sink

type driver = Plain | Sharded
type query = Knn of int | Range of Q.t | Past of Fof.query

module Make (B : Backend.S) = struct
  module K = Knn.Make (B)
  module R = Range_query.Make (B)
  module Sw = Sweep.Make (B)
  module Sh = Shard.Make (B)
  module E = K.E
  module TL = E.TL

  type result = { timeline : TL.t; explain : Explain.t }

  let run ?(driver = Plain) ?(sink = Sink.noop) ~backend ~describe ~db ~gamma ~lo
      ~hi query =
    let gdist = Gdist.euclidean_sq ~gamma in
    let kind, classification, timeline, stats, hot, shards =
      match query, driver with
      | Knn k, Plain ->
        let r = K.run_obs ~sink ~db ~gdist ~k ~lo ~hi in
        ("knn", None, r.K.timeline, r.K.stats, r.K.hot, None)
      | Knn k, Sharded ->
        let r = Sh.run_obs ~sink ~db ~gamma ~k ~lo ~hi () in
        ("knn", None, r.Sh.timeline, r.Sh.stats, r.Sh.hot, Some r.Sh.shard)
      | Range bound, _ ->
        let r = R.run_obs ~sink ~db ~gdist ~bound ~lo ~hi in
        ("range", None, r.R.timeline, r.R.stats, r.R.hot, None)
      | Past q, _ ->
        let query = { q with Fof.interval = Fof.Interval.closed lo hi } in
        let r = Sw.run_obs ~sink ~db ~gdist ~query in
        let classification =
          Format.asprintf "%a" Classify.pp (Classify.classify db query)
        in
        ("past", Some classification, r.Sw.timeline, r.Sw.stats, r.Sw.hot, None)
    in
    let counters =
      [ ("moq_sweep_events_total", float_of_int stats.E.events);
        ("moq_sweep_comparisons_total", float_of_int stats.E.event_comparisons) ]
    in
    let explain =
      Explain.make ~kind ~query:describe ~backend ?classification
        ~n_objects:(DB.cardinal db) ~lo:(Q.to_float lo) ~hi:(Q.to_float hi)
        ~timeline_pieces:(List.length timeline) ~sweep:(E.summary stats) ?shards
        ~hot ~counters ()
    in
    { timeline; explain }
end

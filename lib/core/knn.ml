(** The k-NN operator (paper, Examples 6, 10, 12): the answer at each
    instant is the set of the k lowest g-distance curves — read directly off
    the sweep's order structure instead of re-evaluating a formula, so each
    support change costs O(log N + k).

    Objects tied with the k-th curve are all reported: at an event instant
    those equal to it there (the crossing pair is momentarily equal — the
    paper's step 1 where [o ≡_τ' o']), on an open span those whose curve is
    the k-th curve itself. *)

module Oid = Moq_mod.Oid
module Q = Moq_numeric.Rat
module DB = Moq_mod.Mobdb
module Sink = Moq_obs.Sink

module Make (B : Backend.S) = struct
  module E = Engine.Make (B)
  module C = E.C
  module TL = E.TL

  type result = {
    timeline : TL.t;
    stats : E.stats;
    hot : Explain.hot list;  (** per-object cost attribution, hottest first *)
  }

  let oid_of e = match E.label e with E.Obj (o, _) -> Some o | E.Cst _ -> None

  let set_of_entries es =
    List.fold_left
      (fun acc e -> match oid_of e with Some o -> Oid.Set.add o acc | None -> acc)
      Oid.Set.empty es

  (* [acc] plus the entries from rank [j] on whose curves [tied] pairs
     with [c] (ties sit next to each other in the order). *)
  let rec tied_run eng j ~tied c acc =
    match E.nth_entry eng j with
    | Some e when tied (E.curve e) c -> tied_run eng (j + 1) ~tied c (e :: acc)
    | _ -> acc

  (* The first k entries, extended with the entries tied with the k-th. *)
  let answer eng k ~tied =
    let firsts = E.first_n eng k in
    if List.length firsts < k then set_of_entries firsts
    else set_of_entries (tied_run eng k ~tied (E.curve (List.nth firsts (k - 1))) firsts)

  (* On the open span that starts at the engine clock: curves identical to
     the k-th's just after it.  Curves that separate schedule an event where
     they do, so the identity holds across the span; a tangency is no tie,
     its curves differ. *)
  let answer_span eng k =
    let a = E.now eng in
    answer eng k ~tied:(fun c kth -> C.identical_after c kth a)

  let answer_at eng k i = answer eng k ~tied:(fun c kth -> C.diff_sign_at c kth i = 0)

  let entries ~(db : DB.t) ~(gdist : Gdist.t) =
    List.map
      (fun (o, tr) -> (E.Obj (o, 0), B.curve_of_qpiece (Gdist.curve gdist tr)))
      (DB.objects db)

  let engine ?(sink = Sink.noop) ~db ~gdist ~lo ~hi () =
    E.create ~sink ~start:(B.scalar_of_rat lo) ~horizon:(B.scalar_of_rat hi)
      (entries ~db ~gdist)

  (* The k-NN pieces of a sweep over [lo, hi] (not simplified). *)
  let pieces eng ~k ~lo ~hi =
    E.timeline eng ~lo ~hi ~span:(fun _ _ -> answer_span eng k) ~at:(answer_at eng k)

  let run_obs ~(sink : Sink.t) ~(db : DB.t) ~(gdist : Gdist.t) ~(k : int)
      ~(lo : Q.t) ~(hi : Q.t) : result =
    if k <= 0 then invalid_arg "Knn.run: k must be positive";
    Sink.count sink "moq_query_knn_total" 1;
    Sink.time sink "moq_query_knn_seconds" @@ fun () ->
    let eng = engine ~sink ~db ~gdist ~lo ~hi () in
    let timeline = TL.simplify (pieces eng ~k ~lo ~hi) in
    { timeline; stats = E.stats eng; hot = E.hot_objects eng }

  let run ~db ~gdist ~k ~lo ~hi = run_obs ~sink:Sink.noop ~db ~gdist ~k ~lo ~hi
end

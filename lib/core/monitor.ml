(** Future and continuing queries (paper, Theorem 5, Corollary 6,
    Theorem 10).

    The monitor "semi-evaluates" the query eagerly: it holds the sweep state
    at the current clock and, as updates arrive chronologically, processes
    the intersection events that precede each update, turning predicted
    answer pieces into {e valid} ones (Definition 4: a valid answer can no
    longer change under any update sequence, because updates strictly follow
    the clock).  The three update kinds are handled exactly as in the
    paper's case analysis; a direction change of the query object itself is
    the O(N) rebuild of Theorem 10.

    One monitor serves every standing query over one g-distance.  It holds
    one sweep of the object curves plus the constant curves of every
    attached query (a constant two queries share is mounted once and
    removed with its last user).  Each query keeps only its window, its
    validated pieces and the last instant it emitted.  It takes a piece
    from an engine batch only when the batch involves two of its own
    curves (objects, or its own constants) or an object birth, death or
    jump, so its piece stream is exactly the one a sweep of its own curves
    alone produces.  {!create} is the one-query case. *)

module Oid = Moq_mod.Oid
module Q = Moq_numeric.Rat
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module Sink = Moq_obs.Sink

module Make (B : Backend.S) = struct
  module E = Engine.Make (B)
  module P = Problem.Make (B)
  module S = P.S
  module TL = Timeline.Make (B)

  (* A standing query on the sweep. *)
  type query = {
    query : Fof.query;
    lo : Q.t;
    hi : Q.t;
    consts : Q.t list;  (** its constant curves *)
    mutable valid : TL.piece list;  (** reversed; answers that can no longer change *)
    mutable emitted : int;  (** length of [valid] *)
    mutable drained : int;  (** prefix of [valid] already handed to {!drain} *)
    mutable last : B.instant;
        (** the instant its pieces reach: the clock of a sweep of its own
            curves *)
    mutable pending : B.instant option;
        (** a batch a sweep of its own curves still holds at the instant
            the query joined (see {!attach}) *)
  }

  type t = {
    mutable db : DB.t;
    problem : P.t;
    engine : E.t;
    sink : Sink.t;
    horizon : Q.t option;  (** the sweep does no work past this instant *)
    materialize : bool;
        (** evaluate and record answers (default); [false] maintains the
            support only — the object Theorem 5 bounds — and records no
            pieces *)
    mutable queries : query list;  (** attached, oldest first *)
    mutable clock : Q.t;  (** no update can arrive at or before this time *)
  }

  let interval_bounds (q : Fof.query) =
    match Fof.Interval.lo q.Fof.interval, Fof.Interval.hi q.Fof.interval with
    | Some lo, Some hi -> (lo, hi)
    | _ -> invalid_arg "Monitor: queries need a bounded interval"

  let instant q = B.instant_of_scalar (B.scalar_of_rat q)
  let cap m tau = match m.horizon with Some h -> Q.min tau h | None -> tau
  let within_horizon m tau = match m.horizon with Some h -> Q.compare tau h <= 0 | None -> true

  let push q piece =
    q.valid <- piece :: q.valid;
    q.emitted <- q.emitted + 1

  (* The span from [q]'s last instant to [i], answered at a sample inside. *)
  let span_to ctx q i =
    if B.compare_instant q.last i < 0 then begin
      let sample = B.instant_of_scalar (B.between q.last i) in
      push q (TL.Span (q.last, i, S.answer_at ctx q.query sample))
    end

  let point ctx q i =
    push q (TL.At (i, S.answer_at ctx q.query i));
    q.last <- i

  let own q = function
    | E.Obj _ -> true
    | E.Cst c -> List.exists (Q.equal c) q.consts

  (* The curves of a batch's crossings, grouped by meeting: a crossing
     joins two adjacent curves equal at the batch instant, so each group is
     a run of curves that all meet there. *)
  let groups crossings =
    List.fold_left
      (fun gs (l, r) ->
        let meets g = List.exists (fun x -> E.compare_label x l = 0 || E.compare_label x r = 0) g in
        let joined, rest = List.partition meets gs in
        List.sort_uniq E.compare_label (l :: r :: List.concat joined) :: rest)
      [] crossings

  (* Would a sweep of [q]'s own curves hold this batch?  It would for an
     object birth, death or jump, and for two of its curves meeting —
     directly, or through other queries' constants that meet them at the
     same instant. *)
  let takes q (changes, groups) =
    List.exists (own q) changes
    || List.exists (fun g -> List.compare_length_with (List.filter (own q) g) 1 > 0) groups

  let flush_pending ctx q ~before =
    match q.pending with
    | Some p when B.compare_instant p before < 0 ->
      q.pending <- None;
      span_to ctx q p;
      point ctx q p
    | _ -> ()

  (* One engine batch at [i], seen by [q]. *)
  let on_batch ctx q i batch =
    if B.compare_instant_scalar i (B.scalar_of_rat q.lo) > 0
       && B.compare_instant_scalar i (B.scalar_of_rat q.hi) < 0
    then begin
      flush_pending ctx q ~before:i;
      let joins = match q.pending with Some p -> B.compare_instant p i = 0 | None -> false in
      if joins || takes q batch then begin
        q.pending <- None;
        span_to ctx q i;
        point ctx q i
      end
    end

  let advance_engine m (upto : Q.t) =
    if not m.materialize then
      E.advance m.engine ~upto:(B.scalar_of_rat upto) ~emit:(fun _ -> ())
    else begin
      let ctx = P.snapshot_ctx m.problem in
      let emit = function
        | E.Span _ -> ()
        | E.Point i ->
          let crossings, changes = E.batch m.engine in
          let batch = (changes, groups crossings) in
          List.iter (fun q -> on_batch ctx q i batch) m.queries
      in
      E.advance m.engine ~upto:(B.scalar_of_rat upto) ~emit;
      let upto_i = instant upto in
      List.iter (fun q -> flush_pending ctx q ~before:upto_i) m.queries
    end

  (* Theorem 5(1): initialization, O(N log N). *)
  let make ~sink ~attr ~materialize ~db ~gdist ~tts ~start ~horizon ~consts =
    let p = P.create ~db ~gdist ~tts ~istart:start in
    let engine =
      E.create ~sink ~attr ~start:(B.scalar_of_rat start)
        ?horizon:(Option.map B.scalar_of_rat horizon) (P.entry_list p ~consts)
    in
    Sink.count sink "moq_monitor_created_total" 1;
    { db; problem = p; engine; sink; horizon; materialize; queries = []; clock = start }

  (* A query joining after the sweep passed its start gets its validated
     prefix from a sweep of its own curves over [lo, clock].  That sweep may
     still hold a batch at exactly the clock (an update that landed on a
     crossing, a death or a jump): the query takes it as its first piece
     after the clock. *)
  let catch_up m ctx q =
    let upto = Q.min m.clock q.hi in
    let eng =
      E.create ~sink:m.sink ~attr:false ~start:(B.scalar_of_rat q.lo)
        ~horizon:(B.scalar_of_rat q.hi)
        (P.entry_list m.problem ~start:q.lo ~consts:q.consts)
    in
    E.advance eng ~upto:(B.scalar_of_rat upto) ~emit:(function
      | E.Span _ -> ()
      | E.Point i ->
        span_to ctx q i;
        point ctx q i);
    let upto_i = instant upto in
    match E.next_event eng with
    | Some i when B.compare_instant i upto_i = 0 && Q.compare upto q.hi < 0 ->
      q.pending <- Some i
    | _ -> ()

  (* Attach a standing query: its answer at [lo], its validated prefix
     when [lo] is behind the clock, and its constant curves on the sweep.
     Its time terms must be the sweep's. *)
  let attach m (query : Fof.query) : query =
    let lo, hi = interval_bounds query in
    if not (P.same_time_terms (P.time_terms query) m.problem.P.tts) then
      invalid_arg "Monitor.attach: the query's time terms are not the sweep's";
    let q =
      { query; lo; hi; consts = Fof.constants query; valid = []; emitted = 0;
        drained = 0; last = instant lo; pending = None }
    in
    if Sink.active m.sink then begin
      let kind =
        match Classify.classify m.db query with
        | Classify.Past -> "past"
        | Classify.Continuing -> "continuing"
        | Classify.Future -> "future"
      in
      Sink.count m.sink (Printf.sprintf "moq_query_kind_%s_total" kind) 1
    end;
    if m.materialize then begin
      let ctx = P.snapshot_ctx m.problem in
      point ctx q (instant lo);
      if Q.compare lo m.clock < 0 then catch_up m ctx q
    end;
    List.iter
      (fun c ->
        if Option.is_none (E.find m.engine (E.Cst c)) then
          E.insert m.engine ~at:(B.scalar_of_rat m.clock) (E.Cst c)
            (P.constant_curve ~start:m.clock c))
      q.consts;
    m.queries <- m.queries @ [ q ];
    q

  (* Detach a query; a constant curve goes with its last user. *)
  let detach m q =
    m.queries <- List.filter (fun q' -> q' != q) m.queries;
    List.iter
      (fun c ->
        if not (List.exists (fun q' -> own q' (E.Cst c)) m.queries)
           && Option.is_some (E.find m.engine (E.Cst c))
        then E.remove m.engine ~at:(B.scalar_of_rat m.clock) (E.Cst c))
      q.consts

  (* A clock tick (discussion after Corollary 6): assert that no update will
     arrive at or before [tau]; answers up to [tau] become valid. *)
  let advance_clock m (tau : Q.t) =
    if Q.compare tau m.clock > 0 then begin
      let tau_eff = cap m tau in
      if Q.compare m.clock tau_eff < 0 then advance_engine m tau_eff;
      m.clock <- Q.max m.clock tau_eff
    end

  (* The one-query monitor: a sweep of the query's own curves over its
     interval.  The part of the interval already in the past is valid
     immediately. *)
  let create ?(sink = Sink.noop) ?(attr = true) ?(materialize = true) ~(db : DB.t)
      ~(gdist : Gdist.t) ~(query : Fof.query) () : t =
    let lo, hi = interval_bounds query in
    let m =
      make ~sink ~attr ~materialize ~db ~gdist ~tts:(P.time_terms query) ~start:lo
        ~horizon:(Some hi) ~consts:(Fof.constants query)
    in
    ignore (attach m query);
    advance_clock m (DB.last_update db);
    m

  (* A monitor for any number of standing queries over [gdist], all
     sweeping the plain time variable, starting at the database's clock. *)
  let shared ?(sink = Sink.noop) ?(attr = true) ~(db : DB.t) ~(gdist : Gdist.t) () : t =
    make ~sink ~attr ~materialize:true ~db ~gdist ~tts:[| Fof.t_var |]
      ~start:(DB.last_update db) ~horizon:None ~consts:[]

  (* An update at [tau] (Theorem 5(2)): each query's span up to [tau] is
     validated with the pre-update state, [mutate] changes the sweep, and
     the answer at [tau] reflects the update. *)
  let at_update m (tau : Q.t) mutate =
    let tau_eff = cap m tau in
    if Q.compare m.clock tau_eff < 0 then advance_engine m tau_eff;
    let reached =
      if not m.materialize then []
      else
        List.filter_map
          (fun q ->
            let i = instant (Q.min tau q.hi) in
            if B.compare_instant q.last i < 0 then Some (q, i) else None)
          m.queries
    in
    if reached <> [] then begin
      let ctx = P.snapshot_ctx m.problem in
      List.iter (fun (q, i) -> span_to ctx q i) reached
    end;
    E.sync_clock m.engine ~at:(B.scalar_of_rat tau_eff);
    mutate ();
    if reached <> [] then begin
      let ctx = P.snapshot_ctx m.problem in
      List.iter (fun (q, i) -> point ctx q i) reached
    end;
    if Q.compare m.clock tau_eff < 0 then m.clock <- tau_eff

  (* Theorem 5(2): one update, O(m log N) where m is the number of support
     changes since the previous update. *)
  let apply_update_raw m (u : U.t) : (unit, DB.error) result =
    match DB.apply m.db u with
    | Error e -> Error e
    | Ok db' ->
      let tau = U.time u in
      at_update m tau (fun () ->
          m.db <- db';
          let o = U.oid u in
          (* refresh problem-side curves *)
          (match DB.find db' o with
           | Some tr -> ignore (P.update_object m.problem o tr)
           | None -> ());
          (* engine-side, only when the update time is within the horizon *)
          if within_horizon m tau then begin
            let tau_s = B.scalar_of_rat tau in
            let arr = Oid.Map.find o m.problem.P.curves in
            match u with
            | U.New _ ->
              Array.iteri
                (fun k c ->
                  match c with
                  | Some c when B.PW.defined_at c tau_s -> E.insert m.engine ~at:tau_s (E.Obj (o, k)) c
                  | Some _ | None ->
                    (* curve starting later (affine time term) is picked up as
                       a birth event when the problem curves are rebuilt *)
                    ())
                arr
            | U.Terminate _ ->
              Array.iteri
                (fun k _ ->
                  match E.find m.engine (E.Obj (o, k)) with
                  | Some _ -> E.remove m.engine ~at:tau_s (E.Obj (o, k))
                  | None -> ())
                arr
            | U.Chdir _ ->
              Array.iteri
                (fun k c ->
                  match c, E.find m.engine (E.Obj (o, k)) with
                  | Some c, Some _ -> E.replace_curve m.engine ~at:tau_s (E.Obj (o, k)) c
                  | Some c, None when B.PW.defined_at c tau_s ->
                    E.insert m.engine ~at:tau_s (E.Obj (o, k)) c
                  | _ -> ())
                arr
          end);
      Ok ()

  (* Corollary 6 check: per-update latency and the support-change count m
     this update triggered (events processed while advancing to the update
     time, plus the update's own births/deaths). *)
  let support_of (s : E.stats) = s.E.crossings + s.E.births + s.E.deaths

  let hot_objects m = E.hot_objects m.engine

  let apply_update m (u : U.t) : (unit, DB.error) result =
    if not (Sink.active m.sink) then apply_update_raw m u
    else begin
      Sink.count m.sink "moq_monitor_updates_total" 1;
      let s0 = support_of (E.stats m.engine) in
      let r =
        Sink.time m.sink "moq_monitor_update_seconds" (fun () ->
            apply_update_raw m u)
      in
      (match r with
       | Ok () ->
         Sink.observe m.sink "moq_monitor_support_delta"
           (float_of_int (support_of (E.stats m.engine) - s0))
       | Error _ -> Sink.count m.sink "moq_monitor_update_errors_total" 1);
      r
    end

  let apply_update_exn m u =
    match apply_update m u with
    | Ok () -> ()
    | Error e -> invalid_arg (Format.asprintf "Monitor.apply_update: %a" DB.pp_error e)

  (* Theorem 10: a chdir on the query trajectory.  The caller supplies the
     updated g-distance (same γ position at [tau], so every curve is
     continuous through [tau] and the precedence relation is unchanged); the
     engine rebuilds all pending events in O(N) without re-sorting. *)
  let chdir_query m ~(tau : Q.t) ~(gdist : Gdist.t) =
    Sink.count m.sink "moq_monitor_query_chdirs_total" 1;
    at_update m tau (fun () ->
        P.set_gdist m.problem gdist m.db;
        if within_horizon m tau then
          E.replace_all_curves m.engine ~at:(B.scalar_of_rat tau) (fun e ->
              match E.label e with
              | E.Obj (o, k) ->
                (match Oid.Map.find_opt o m.problem.P.curves with
                 | Some arr when k < Array.length arr ->
                   (match arr.(k) with Some c -> c | None -> E.curve e)
                 | _ -> E.curve e)
              | E.Cst _ -> E.curve e))

  (* Incremental consumers (a live subscription's push path): the validated
     pieces produced since the previous drain, chronological, in
     O(fresh pieces).  Unlike {!timeline} the pieces are raw — not
     simplified, no synthetic closing span — so consecutive drains
     concatenate into exactly the query's validated piece stream. *)
  let drain q : TL.piece list =
    let fresh = q.emitted - q.drained in
    if fresh <= 0 then []
    else begin
      q.drained <- q.emitted;
      let rec take k l acc =
        if k = 0 then acc else match l with [] -> acc | x :: tl -> take (k - 1) tl (x :: acc)
      in
      take fresh q.valid []
    end

  (* The clock as [q] sees it: everything in [q]'s window up to here is
     valid. *)
  let query_clock m q = Q.max q.lo (Q.min m.clock q.hi)

  (* The validated prefix of [q]'s answer (everything up to its clock). *)
  let timeline m q : TL.t =
    let upto = instant (query_clock m q) in
    let tail =
      if m.materialize && B.compare_instant q.last upto < 0 then begin
        let ctx = P.snapshot_ctx m.problem in
        let sample = B.instant_of_scalar (B.between q.last upto) in
        [ TL.At (upto, S.answer_at ctx q.query upto);
          TL.Span (q.last, upto, S.answer_at ctx q.query sample) ]
      end
      else []
    in
    TL.simplify (List.rev (tail @ q.valid))

  let only m =
    match m.queries with
    | [ q ] -> q
    | _ -> invalid_arg "Monitor: not a one-query monitor"

  let drain_valid m = drain (only m)
  let valid_timeline m = timeline m (only m)

  (* Finish: no more updates will ever arrive (the query has become past).
     Returns the complete, valid timeline. *)
  let finalize m : TL.t =
    let q = only m in
    advance_clock m q.hi;
    if m.materialize then begin
      let hi = instant q.hi in
      if B.compare_instant q.last hi < 0 then begin
        let ctx = P.snapshot_ctx m.problem in
        span_to ctx q hi;
        point ctx q hi
      end
    end;
    m.clock <- q.hi;
    TL.simplify (List.rev q.valid)

  let stats m = E.stats m.engine
  let engine m = m.engine
  let db m = m.db
  let clock m = m.clock

  (* Robustness hooks: a long-lived monitor periodically audits the sweep
     invariants and, on violation, falls back to the O(N log N) rebuild
     (Theorem 10's initialization cost) instead of crashing mid-stream. *)
  let audit_kinds m =
    let eng = E.audit_kinds m.engine in
    let local = ref [] in
    if not (within_horizon m m.clock) then
      local := (E.V_clock, "monitor clock past the interval end") :: !local;
    if Q.compare (DB.last_update m.db) m.clock > 0
       && (match m.horizon with Some h -> Q.compare m.clock h < 0 | None -> true)
    then
      local := (E.V_clock, "validated clock behind the database's last update") :: !local;
    eng @ List.rev !local

  let audit m = List.map snd (audit_kinds m)

  let audit_and_heal m =
    Sink.count m.sink "moq_engine_audits_total" 1;
    match audit_kinds m with
    | [] -> []
    | violations ->
      (E.stats m.engine).E.audit_failures <- (E.stats m.engine).E.audit_failures + 1;
      Sink.count m.sink "moq_engine_audit_failures_total" 1;
      E.note_violations m.engine violations;
      E.rebuild m.engine;
      m.clock <- cap m m.clock;
      List.map snd violations

  let heal m = E.rebuild m.engine
end

(** Continuous POI aggregation (Gómez–Kuijpers–Vaisman, PAPERS.md).

    Given a set of places of interest (points with a shared distance
    threshold [d]) and a tumbling window, maintain per-POI, per-window
    aggregates over the moving objects: the object count at the window's
    end, the time-weighted average count over the window (density), and the
    number of distinct visitors.  Two evaluation strategies:

    - {!Make.Cont} — incremental, one object at a time.  A within-[d] query
      has one constant curve, so its answer changes only where some
      object's distance to the POI crosses [d] (Lemma 8); the crossings
      between objects that a sweep spends its events on never change it.
      Each POI therefore keeps, per object, the closed intervals of
      [[lo, hi]] on which the object is within [d] ({!Within}).  An update
      at [tau] touches its own object only: its intervals are cut at [tau]
      and those of its new piece are added.  A piece whose exact minimum
      distance lies beyond [d] adds nothing and isolates no root; an
      outward-rounded float box around the piece settles most of those
      before any exact arithmetic on their (often long) rationals.  A window
      is final once the clock (the last update time) reaches its end: its
      timeline is read off the intervals that meet it, and intervals that
      end before it are dropped.
    - {!Make.rescan} — the oracle and the baseline the bench gates against:
      an independent full sweep ({!Moq_core.Sweep}) of the whole database
      per POI per window.

    Both produce bit-identical rows: each window's timeline is brought to
    the same canonical form ({!Moq_core.Timeline.Make.simplify}) and the
    same fold computes the row, so equality is structural (the [w1] bench's
    exactness check). *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module Oid = Moq_mod.Oid
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module U = Moq_mod.Update
module IV = Moq_numeric.Fintval
module Sink = Moq_obs.Sink
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist

type row = {
  r_poi : int;  (** index into the POI list, 0-based *)
  r_widx : int;  (** window index, 0-based *)
  r_lo : Q.t;
  r_hi : Q.t;
  r_count : int;  (** objects within [d] at the window's end (exact) *)
  r_density : float;  (** time-weighted average count over the window *)
  r_distinct : int;  (** distinct visitors over the window (exact) *)
}

type stats = {
  pois : int;
  windows : int;  (** windows per POI *)
  rows : int;  (** rows finalized so far *)
  admitted : int;  (** (POI, object) pairs that came within [d] *)
  pruned : int;
      (** deliveries (an object's trajectory at creation, its new piece at
          an update, to one POI) decided beyond [d] without a root *)
  updates : int;  (** updates offered *)
  forwarded : int;  (** update deliveries that changed a POI's intervals *)
}

let pp_row fmt r =
  Format.fprintf fmt "poi %d window %d [%a, %a): count %d density %.6f distinct %d"
    r.r_poi r.r_widx Q.pp r.r_lo Q.pp r.r_hi r.r_count r.r_density r.r_distinct

(* Windows tile [lo, hi]: window i is [lo + i·w, min (lo + (i+1)·w) hi]. *)
let window_count ~lo ~hi ~window =
  if Q.sign window <= 0 then invalid_arg "Agg: window must be positive";
  if Q.compare lo hi >= 0 then invalid_arg "Agg: need lo < hi";
  let span = Q.sub hi lo in
  let q = Q.div span window in
  (* ceil of an exact positive rational *)
  let fl = int_of_float (Float.floor (Q.to_float q)) in
  let rec up k = if Q.compare (Q.mul (Q.of_int k) window) span >= 0 then k else up (k + 1) in
  up (max fl 1)

let window_bounds ~lo ~hi ~window i =
  let w0 = Q.add lo (Q.mul (Q.of_int i) window) in
  let w1 = Q.min hi (Q.add w0 window) in
  (w0, w1)

module Make (B : Moq_core.Backend.S) = struct
  module W = Within.Make (B)
  module Sw = Moq_core.Sweep.Make (B)
  module TL = Moq_core.Timeline.Make (B)

  let instant_of_q = W.instant_of_q
  let cmp_iq i q = B.compare_instant_scalar i (B.scalar_of_rat q)

  (* One row from a window's canonical (simplified, boundary-closed)
     timeline.  Shared verbatim between the incremental and rescan paths so
     equal timelines give bit-identical rows — including the float density,
     summed in the same order over the same algebraic endpoints. *)
  let row_of_timeline ~poi ~widx ~w0 ~w1 (tl : TL.t) : row =
    let count =
      match TL.find_at tl (instant_of_q w1) with
      | Some s -> Oid.Set.cardinal s
      | None -> 0
    in
    let distinct = Oid.Set.cardinal (TL.existential tl) in
    let occupied =
      List.fold_left
        (fun acc p ->
          match p with
          | TL.At _ -> acc
          | TL.Span (a, b, s) ->
            let len = B.instant_to_float b -. B.instant_to_float a in
            acc +. (float_of_int (Oid.Set.cardinal s) *. len))
        0.0 tl
    in
    let wlen = Q.to_float (Q.sub w1 w0) in
    {
      r_poi = poi;
      r_widx = widx;
      r_lo = w0;
      r_hi = w1;
      r_count = count;
      r_density = (if wlen > 0.0 then occupied /. wlen else 0.0);
      r_distinct = distinct;
    }

  (* ---- incremental evaluation ---- *)

  module Cont = struct
    type pstate = {
      p_idx : int;
      p_gdist : Gdist.t;  (** squared distance to the POI *)
      p_iv : IV.t array;  (** the POI's coordinates, as float enclosures *)
      mutable p_within : W.interval list Oid.Map.t;
          (** per object: where it is within [d], ascending and maximal;
              nothing that ends before window [p_next_w] starts *)
      mutable p_met : Oid.Set.t;  (** objects that ever came within [d] *)
      mutable p_next_w : int;  (** next window index to finalize *)
      mutable p_rows : row list;  (** finalized, reversed *)
      mutable p_fresh : row list;  (** finalized since the last drain, reversed *)
    }

    type t = {
      mutable db : DB.t;
      d2 : Q.t;
      d2_hi : float;  (** a float at or above [d2] *)
      window : Q.t;
      lo : Q.t;
      hi : Q.t;
      nw : int;
      sink : Sink.t;
      ps : pstate array;
      mutable clock : Q.t;  (** no update can arrive at or before this time *)
      mutable s_admitted : int;
      mutable s_pruned : int;
      mutable s_updates : int;
      mutable s_forwarded : int;
      mutable s_rows : int;
    }

    (* Float boxes around the positions [tr] takes on [[from_, hi]], one
       per piece: per coordinate, outward-rounded bounds of the segment the
       piece sweeps.  Shared by every POI an object is delivered to. *)
    let boxes t tr ~from_ =
      let rec go = function
        | [] -> []
        | (pc : T.piece) :: rest ->
          let s = Q.max pc.T.start from_ in
          let e =
            match rest, T.death tr with
            | next :: _, _ -> Q.min next.T.start t.hi
            | [], Some e -> Q.min e t.hi
            | [], None -> t.hi
          in
          if Q.compare s e > 0 then go rest
          else begin
            let at x i =
              IV.add (IV.mul (IV.of_rat (Qvec.get pc.T.a i)) (IV.of_rat x))
                (IV.of_rat (Qvec.get pc.T.b i))
            in
            Array.init (Qvec.dim pc.T.a) (fun i ->
                let u = at s i and v = at e i in
                (Float.min (IV.lo u) (IV.lo v), Float.max (IV.hi u) (IV.hi v)))
            :: go rest
          end
      in
      go (T.pieces tr)

    (* A float lower bound on the squared distance from [p] to [box]. *)
    let separation2 p box =
      let sq = ref (IV.of_int 0) in
      Array.iteri
        (fun i (l, h) ->
          let pl = IV.lo p.p_iv.(i) and ph = IV.hi p.p_iv.(i) in
          let gap =
            if l > ph then IV.lo (IV.sub (IV.point l) (IV.point ph))
            else if h < pl then IV.lo (IV.sub (IV.point pl) (IV.point h))
            else 0.
          in
          let g = IV.point (Float.max 0. gap) in
          sq := IV.add !sq (IV.mul g g))
        box;
      IV.lo !sq

    (* Deliver [tr]'s trajectory on [[from_, hi]] to [p]: its
       within-intervals there, counted as an admission the first time the
       object comes within [d], as pruned when none exist.  Boxes surely
       beyond [d] settle it before any exact arithmetic. *)
    let deliver t p o tr ~from_ ~boxes =
      let ivs =
        if List.for_all (fun b -> separation2 p b > t.d2_hi) boxes then []
        else W.intervals (Gdist.curve p.p_gdist tr) ~bound:t.d2 ~lo:from_ ~hi:t.hi
      in
      if ivs = [] then t.s_pruned <- t.s_pruned + 1
      else if not (Oid.Set.mem o p.p_met) then begin
        p.p_met <- Oid.Set.add o p.p_met;
        t.s_admitted <- t.s_admitted + 1
      end;
      ivs

    (* The intervals as the trajectory up to [tau] leaves them; the list
       itself when none reaches past [tau]. *)
    let rec cut_at tau = function
      | [] -> []
      | (iv : W.interval) :: rest as l ->
        if cmp_iq iv.W.l tau > 0 then []
        else if cmp_iq iv.W.r tau > 0 then [ { iv with W.r = instant_of_q tau } ]
        else begin
          let rest' = cut_at tau rest in
          if rest' == rest then l else iv :: rest'
        end

    (* The canonical timeline of window [[w0, w1]]: an object is in the
       answer exactly on its intervals, so the answer can change only at
       their ends.  Walk those ends in order; at each instant the answer
       is the objects inside plus those whose interval opens there, and
       the span after it loses those whose interval closes there. *)
    let window_timeline p ~w0 ~w1 : TL.t =
      let w0i = instant_of_q w0 and w1i = instant_of_q w1 in
      let clip i = if cmp_iq i w0 < 0 then w0i else if cmp_iq i w1 > 0 then w1i else i in
      let ends =
        Oid.Map.fold
          (fun o ivs acc ->
            List.fold_left
              (fun acc (iv : W.interval) ->
                if cmp_iq iv.W.r w0 < 0 || cmp_iq iv.W.l w1 > 0 then acc
                else (clip iv.W.l, Some (o, true)) :: (clip iv.W.r, Some (o, false)) :: acc)
              acc ivs)
          p.p_within [ (w1i, None) ]
      in
      (* stable: an interval's opening stays ahead of its closing *)
      let ends = (w0i, None) :: List.stable_sort (fun (a, _) (b, _) -> B.compare_instant a b) ends in
      let rec walk prev inside = function
        | [] -> []
        | (i, _) :: _ as l ->
          let rec take at after = function
            | (j, m) :: rest when B.compare_instant i j = 0 -> (
              match m with
              | Some (o, true) -> take (Oid.Set.add o at) (Oid.Set.add o after) rest
              | Some (o, false) -> take at (Oid.Set.remove o after) rest
              | None -> take at after rest)
            | rest -> (at, after, rest)
          in
          let at, after, rest = take inside inside l in
          let pieces = TL.At (i, at) :: walk (Some i) after rest in
          (match prev with Some a -> TL.Span (a, i, inside) :: pieces | None -> pieces)
      in
      TL.simplify (walk None Oid.Set.empty ends)

    (* Finalize every window of [p] the clock has passed, dropping the
       intervals that end before the finalized boundary. *)
    let rec finalize_ready t p =
      if p.p_next_w < t.nw then begin
        let w0, w1 = window_bounds ~lo:t.lo ~hi:t.hi ~window:t.window p.p_next_w in
        if Q.compare w1 t.clock <= 0 then begin
          let row =
            row_of_timeline ~poi:p.p_idx ~widx:p.p_next_w ~w0 ~w1 (window_timeline p ~w0 ~w1)
          in
          p.p_rows <- row :: p.p_rows;
          p.p_fresh <- row :: p.p_fresh;
          p.p_next_w <- p.p_next_w + 1;
          t.s_rows <- t.s_rows + 1;
          if Sink.active t.sink then begin
            Sink.count t.sink "moq_agg_rows_total" 1;
            Sink.count t.sink "moq_agg_windows_total" 1
          end;
          p.p_within <-
            Oid.Map.filter_map
              (fun _ ivs ->
                match List.filter (fun (iv : W.interval) -> cmp_iq iv.W.r w1 >= 0) ivs with
                | [] -> None
                | l -> Some l)
              p.p_within;
          finalize_ready t p
        end
      end

    let create ?(sink = Sink.noop) ~(db : DB.t) ~(pois : Qvec.t list) ~(d : Q.t)
        ~(window : Q.t) ~(lo : Q.t) ~(hi : Q.t) () : t =
      if Q.sign d < 0 then invalid_arg "Agg.Cont.create: d must be >= 0";
      let nw = window_count ~lo ~hi ~window in
      let pstate i point =
        if Qvec.dim point <> DB.dim db then
          invalid_arg "Agg.Cont.create: POI dimension differs from the MOD's";
        { p_idx = i; p_gdist = Gdist.distance_sq_to_point point;
          p_iv = Array.init (Qvec.dim point) (fun k -> IV.of_rat (Qvec.get point k));
          p_within = Oid.Map.empty; p_met = Oid.Set.empty; p_next_w = 0; p_rows = [];
          p_fresh = [] }
      in
      let d2 = Q.mul d d in
      let t =
        { db; d2; d2_hi = IV.hi (IV.of_rat d2); window; lo; hi; nw; sink;
          ps = Array.of_list (List.mapi pstate pois);
          clock = Q.max lo (Q.min hi (DB.last_update db));
          s_admitted = 0; s_pruned = 0; s_updates = 0; s_forwarded = 0; s_rows = 0 }
      in
      List.iter
        (fun (o, tr) ->
          let boxes = boxes t tr ~from_:lo in
          Array.iter
            (fun p ->
              match deliver t p o tr ~from_:lo ~boxes with
              | [] -> ()
              | ivs -> p.p_within <- Oid.Map.add o ivs p.p_within)
            t.ps)
        (DB.objects db);
      if Sink.active sink then begin
        Sink.count sink "moq_agg_pois" (Array.length t.ps);
        Sink.count sink "moq_agg_watch_admitted_total" t.s_admitted;
        Sink.count sink "moq_agg_watch_pruned_total" t.s_pruned
      end;
      Array.iter (finalize_ready t) t.ps;
      t

    (* An update at [tau] touches its own object only: each POI cuts the
       object's intervals at [tau] and adds those of its new piece. *)
    let apply_update t (u : U.t) : (unit, DB.error) result =
      match DB.apply t.db u with
      | Error e -> Error e
      | Ok db' ->
        t.db <- db';
        t.s_updates <- t.s_updates + 1;
        let o = U.oid u and tau = U.time u in
        (* the object's new piece, while it can still reach a window *)
        let next =
          match u, DB.find db' o with
          | U.Terminate _, _ | _, None -> None
          | _ when Q.compare tau t.hi > 0 -> None
          | U.New { a; b; _ }, Some _ -> Some (T.linear ~start:tau ~a ~b)
          | U.Chdir _, Some tr ->
            (* the piece [DB.apply] just appended at [tau]; recomputing
               its [b] from the old trajectory cost as much again *)
            let pc = List.hd (List.rev (T.pieces tr)) in
            Some (T.linear ~start:tau ~a:pc.T.a ~b:pc.T.b)
        in
        let from_ = Q.max tau t.lo in
        let next = Option.map (fun tr -> (tr, boxes t tr ~from_)) next in
        let admitted = t.s_admitted and pruned = t.s_pruned in
        Array.iter
          (fun p ->
            let old = Option.value ~default:[] (Oid.Map.find_opt o p.p_within) in
            let kept = cut_at tau old in
            let added =
              match next with
              | Some (tr, boxes) -> deliver t p o tr ~from_ ~boxes
              | None -> []
            in
            if kept != old || added <> [] then begin
              t.s_forwarded <- t.s_forwarded + 1;
              match List.rev (List.fold_left W.push (List.rev kept) added) with
              | [] -> p.p_within <- Oid.Map.remove o p.p_within
              | ivs -> p.p_within <- Oid.Map.add o ivs p.p_within
            end)
          t.ps;
        t.clock <- Q.max t.clock (Q.min tau t.hi);
        Array.iter (finalize_ready t) t.ps;
        if Sink.active t.sink then begin
          Sink.count t.sink "moq_agg_updates_total" 1;
          if t.s_admitted > admitted then
            Sink.count t.sink "moq_agg_watch_admitted_total" (t.s_admitted - admitted);
          if t.s_pruned > pruned then
            Sink.count t.sink "moq_agg_watch_pruned_total" (t.s_pruned - pruned)
        end;
        Ok ()

    let apply_update_exn t u =
      match apply_update t u with
      | Ok () -> ()
      | Error e ->
        invalid_arg (Format.asprintf "Agg.Cont.apply_update: %a" DB.pp_error e)

    let rows t = Array.to_list t.ps |> List.concat_map (fun p -> List.rev p.p_rows)

    (* No more updates will arrive: every window becomes final. *)
    let finalize t : row list =
      t.clock <- t.hi;
      Array.iter (finalize_ready t) t.ps;
      rows t

    (* Rows finalized since the previous drain, (poi, window) ascending. *)
    let drain_rows t : row list =
      Array.to_list t.ps
      |> List.concat_map (fun p ->
             let fresh = List.rev p.p_fresh in
             p.p_fresh <- [];
             fresh)

    (* Every row up to here is final; with no POI, all of them are. *)
    let clock t = if Array.length t.ps = 0 then t.hi else t.clock

    let stats t : stats =
      {
        pois = Array.length t.ps;
        windows = t.nw;
        rows = t.s_rows;
        admitted = t.s_admitted;
        pruned = t.s_pruned;
        updates = t.s_updates;
        forwarded = t.s_forwarded;
      }
  end

  (* ---- rescan baseline ---- *)

  (* One full sweep of the whole database per POI per window: the cost the
     incremental path avoids, and the ground truth it must match. *)
  let rescan ?(sink = Sink.noop) ~(db : DB.t) ~(pois : Qvec.t list)
      ~(d : Q.t) ~(window : Q.t) ~(lo : Q.t) ~(hi : Q.t) () : row list =
    let nw = window_count ~lo ~hi ~window in
    let d2 = Q.mul d d in
    List.concat
      (List.mapi
         (fun i point ->
           let gdist = Gdist.distance_sq_to_point point in
           List.init nw (fun widx ->
               let w0, w1 = window_bounds ~lo ~hi ~window widx in
               let query =
                 Fof.within_q ~bound:d2
                   ~interval:(Fof.Interval.closed w0 w1)
               in
               let r = Sw.run_obs ~sink ~db ~gdist ~query in
               row_of_timeline ~poi:i ~widx ~w0 ~w1 r.Sw.timeline))
         pois)

  let equal_row (a : row) (b : row) =
    a.r_poi = b.r_poi && a.r_widx = b.r_widx && Q.equal a.r_lo b.r_lo
    && Q.equal a.r_hi b.r_hi && a.r_count = b.r_count
    && Float.equal a.r_density b.r_density && a.r_distinct = b.r_distinct

  let equal_rows a b = List.length a = List.length b && List.for_all2 equal_row a b
end

(* fleet-subs: one ordered writer flips object velocities while one
   subscriber connection holds 16 standing subscriptions.  Each update's
   cost is 16 monitor steps plus event delivery; 15 of the subscriptions
   share one g-distance. *)

open Drive
module M = Moq_core.Monitor.Make (B)
module Gen = Moq_workload.Gen

let n = 12

(* Update j goes to object (j mod 12)+1 and flips its velocity, so every
   object oscillates on a fixed segment and each period of 24 updates
   repeats the same crossings shifted in time. *)
let period = 24

type input = {
  db : DB.t;
  kinds : Proto.sub_kind list;
  updates : U.t list;
  lo : Q.t;
  hi : Q.t;
}

(* The fleet every seed transforms (see [Drive.transform_db]). *)
let base_seed = 7

(* Five periods (120 updates) per work unit: the op tail mean is over the
   slowest 12, and server.age_ratio compares the last period with the
   first.  With four periods the tail's spread over seeds was 0.09 of its
   median, above a third of its bound. *)
let inputs ~seed ~seconds =
  let db = transform_db ~seed (Gen.uniform_db ~seed:base_seed ~n ~extent:100 ~speed:6 ()) in
  let count = 5 * period * units ~seconds in
  (* one bound per band of 1500 squared units: distinct by construction *)
  let bounds = List.init 12 (fun i -> Q.of_int ((1500 * (i + 1)) + (97 * i mod 300))) in
  let speed_bound = Q.of_int 20 in
  let kinds =
    List.map (fun b -> Proto.Sub_range b) bounds
    @ [ Proto.Sub_knn 1; Proto.Sub_knn 1; Proto.Sub_knn 2;
        Proto.Sub_gdist (Proto.Speed_sq, speed_bound) ]
  in
  let vel =
    Array.init (n + 1) (fun o ->
        match DB.find db o with
        | Some tr -> Option.value ~default:(Qvec.zero 2) (T.velocity_after tr Q.zero)
        | None -> Qvec.zero 2)
  in
  let updates =
    List.init count (fun j0 ->
        let j = j0 + 1 in
        let o = (j mod n) + 1 in
        vel.(o) <- Qvec.neg vel.(o);
        U.Chdir { oid = o; tau = Q.of_int j; a = vel.(o) })
  in
  { db; kinds; updates; lo = Q.zero; hi = Q.of_int (count + period) }

(* The monitor the server builds for a subscription of [kind]. *)
let monitor ~materialize inp kind =
  let interval = Fof.Interval.closed inp.lo inp.hi in
  let query =
    match kind with
    | Proto.Sub_knn 1 -> Fof.nearest_q ~interval
    | Proto.Sub_knn k -> Fof.knn_q ~k ~interval
    | Proto.Sub_range b | Proto.Sub_gdist (_, b) -> Fof.within_q ~bound:b ~interval
    | Proto.Sub_agg _ -> invalid_arg "fleet-subs has no agg subscription"
  in
  let gdist =
    match kind with
    | Proto.Sub_gdist (Proto.Speed_sq, _) -> Gdist.speed_sq
    | _ -> Gdist.euclidean_sq ~gamma:(gamma 2)
  in
  M.create ~materialize ~db:inp.db ~gdist ~query ()


let replica ?store ~materialize inp =
  replay ?store ~layer:"core.monitor" ~db:inp.db
    ~create:(fun () ->
      Array.of_list
        (List.map
           (fun k ->
             Ledger.span ~layer:"core.monitor" ~op:"create" ~id:0 (fun () ->
                 monitor ~materialize inp k))
           inp.kinds))
    ~step:M.apply_update_exn ~drain:M.drain_valid ~wire:wire_piece inp.updates

let events (s : M.E.stats) = s.M.E.crossings + s.M.E.births + s.M.E.deaths + s.M.E.jumps

let sum_stats f mons = Array.fold_left (fun a m -> a + f (M.stats m)) 0 mons

let run ~seed ~seconds ~trace ~workdir : outcome =
  let inp = inputs ~seed ~seconds in
  let nupd = float_of_int (List.length inp.updates) in
  let sw =
    serve_writes ~workdir ~db:inp.db ~kinds:inp.kinds ~lo:inp.lo ~hi:inp.hi ~trace (fun () ->
        inp.updates)
  in
  let store () = replica_store ~workdir inp.db in
  let plain = if trace then Some (replica ~materialize:true ~store:(store ()) inp) else None in
  let of_replica (p : _ replay) = reference_of ~events:(sum_stats events p.subs) p.streams in
  let expected =
    reference ~key:(Printf.sprintf "fleet-subs-u%d" (units ~seconds)) (fun () ->
        of_replica
          (match plain with Some p -> p | None -> replica ~materialize:true inp))
  in
  let final_db = List.fold_left DB.apply_exn inp.db inp.updates in
  let failed, notes = check_writes sw ~expected ~final_db in
  let pushed = Hashtbl.fold (fun _ s a -> a + List.length s.pieces_rev) sw.streams 0 in
  let engine_events = expected.events in
  let work =
    [ ("accepted_updates", sw.run.accepted); ("pushed_pieces", pushed);
      ("engine_events", engine_events); ("agg_rows", 0); ("query_pieces", 0) ]
  in
  let e2e = writes_e2e sw in
  let layer, lnotes, traced_failed =
    match sw.stats, plain with
    | None, _ | _, None -> ([], [], 0)
    | Some (s0, s1), Some plain ->
      let traced, wall, trows, lnotes =
        traced_pass ~workdir (fun () -> replica ~materialize:true ~store:(store ()) inp)
      in
      let traced_ok = traced.streams = plain.streams && of_replica plain = expected in
      let step_s = Ledger.durations ~layer:"core.monitor" ~op:"step" in
      let spans_rows =
        [ span_row "mod.apply_us" ~layer:"mod" ~op:"apply";
          span_row "durable.classify_us" ~layer:"durable" ~op:"classify";
          span_row "durable.append_us" ~layer:"durable" ~op:"append";
          span_row "core.monitor.step_us" ~layer:"core.monitor" ~op:"step";
          ("core.monitor.step_age_ratio",
           Served.age_ratio ~block:(period * List.length inp.kinds) step_s, "ratio");
          span_row "core.monitor.drain_us" ~layer:"core.monitor" ~op:"drain" ]
        @ proto_rows ~pieces:traced.pieces
      in
      (* the same stream without materialization *)
      let nomat = replica ~materialize:false inp in
      (* Gdist.curve of each updated trajectory, euclidean *)
      let curve_s =
        let g = Gdist.euclidean_sq ~gamma:(gamma 2) in
        let db = ref inp.db and acc = ref [] in
        List.iter
          (fun u ->
            db := DB.apply_exn !db u;
            match DB.find !db (U.oid u) with
            | Some tr -> acc := snd (time (fun () -> Gdist.curve g tr)) :: !acc
            | None -> ())
          inp.updates;
        !acc
      in
      let ev = float_of_int engine_events in
      let rows =
        server_layer ~accepted:sw.run.accepted ~s0 ~s1
        @ [ age_row ~block:period sw.run.upd_s;
            ("client.event_bytes_per_update", ratio (float_of_int sw.run.event_bytes) nupd, "B");
            ("client.verdict_to_pong_ms", ms (Served.median sw.run.v2p_s), "ms") ]
        @ spans_rows
        @ [ ("core.monitor.materialize_us",
             1e6 *. (Served.mean plain.steps -. Served.mean nomat.steps), "us");
            ("core.monitor.curve_us", 1e6 *. Served.mean curve_s, "us");
            ("core.monitor.support_changes_per_update",
             ratio (float_of_int (sum_stats M.support_of plain.subs)) nupd, "count");
            ("core.engine.events", ev, "count");
            ("core.engine.comparisons_per_event",
             ratio (float_of_int (sum_stats (fun s -> s.M.E.comparisons) plain.subs)) ev, "count");
            ("core.engine.us_per_event",
             1e6 *. ratio (List.fold_left ( +. ) 0. plain.steps) ev, "us") ]
        @ mod_layer plain.final_db
        @ index_layer plain.final_db ~lo:inp.lo ~hi:inp.hi
        @ [ ("traced.overhead_ratio", ratio wall plain.wall, "ratio") ]
        @ trows
      in
      ( rows,
        (if traced_ok then []
         else [ "MISMATCH replica streams differ from the untraced replica or the reference" ])
        @ [ "unavailable: DB apply, curve rebuild, engine mutation and event advance inside \
             Monitor.apply_update (no spans inside the program); core.monitor.step_us times \
             them whole";
            "unavailable: lock wait apart from dispatch (server.unattributed_ms holds both)" ]
        @ lnotes,
        if traced_ok then 0 else 1 )
  in
  { attempted = List.length inp.updates; failed = failed + traced_failed; work; e2e; layer;
    notes = notes @ lnotes }

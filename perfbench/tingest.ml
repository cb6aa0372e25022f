(* trace-ingest: a GPS-style trace of 48 objects, segmented into about
   900 new/chdir updates, streamed into an empty 2-D MOD while one
   subscriber connection holds two POI aggregations.  The MOD grows in
   objects, not in per-object history; cost is ring-pruned aggregation
   plus sanitize, WAL append and fsync. *)

open Drive
module AggM = Moq_agg.Agg
module Agg = Moq_agg.Agg.Make (B)
module Gen = Moq_workload.Gen
module Ingest = Moq_ingest.Ingest

let steps = 24
let d = Q.of_int 300
let window = Q.of_int 5
let lo = Q.zero
let hi = Q.of_int steps

type input = {
  samples : Ingest.sample list;
  pois : Q.t list list list;  (* per subscription, 8 POIs *)
  db : DB.t;  (* empty *)
}

(* The trace and POIs every seed transforms by [Drive.symmetry]: with free
   seeds the p90 update latency varied 0.86 of its median, as POIs landed
   in busy or empty parts of the trace. *)
let base_seed = 13

(* 48 objects (about 900 updates) per work unit, under 8 POIs per
   subscription at d = 300.  The aggregation makes an update cost about
   14 ms of server CPU, against about 2 ms of fsync and thread wake-ups
   that a busy host stretches most.  With 4 POIs at d = 200 (5 ms of CPU)
   the op mean's spread over 10 seeds reached 0.27 of its median on such
   a host, where CPU-bound fleet-subs stayed at 0.12. *)
let inputs ~seed ~seconds =
  let n = 48 * units ~seconds in
  let f = symmetry ~seed in
  let samples =
    List.map
      (fun (oid, t, pos) -> { Ingest.oid; t; pos = f pos })
      (Gen.trace_like ~seed:base_seed ~n ~steps ~extent:2000 ())
  in
  let st = Random.State.make [| base_seed; 0x71 |] in
  let coord () = Q.of_int (Random.State.int st 3001 - 1500) in
  let poi () = Qvec.to_list (f (Qvec.of_list [ coord (); coord () ])) in
  let pois = List.init 2 (fun _ -> List.init 8 (fun _ -> poi ())) in
  { samples; pois; db = DB.empty ~dim:2 ~tau:(Q.of_int (-1)) }

let kind pois = Proto.Sub_agg { d; window; pois }

let wire_row (r : AggM.row) =
  Proto.P_agg
    { poi = r.AggM.r_poi; widx = r.AggM.r_widx; w_lo = Q.to_string r.AggM.r_lo;
      w_hi = Q.to_string r.AggM.r_hi; count = r.AggM.r_count;
      density = r.AggM.r_density; distinct = r.AggM.r_distinct }

let replica ?store inp updates =
  replay ?store ~layer:"agg" ~db:inp.db
    ~create:(fun () ->
      Array.of_list
        (List.map
           (fun pois ->
             Ledger.span ~layer:"agg" ~op:"create" ~id:0 (fun () ->
                 Agg.Cont.create ~db:inp.db ~pois:(List.map Qvec.of_list pois) ~d ~window ~lo
                   ~hi ()))
           inp.pois))
    ~step:Agg.Cont.apply_update_exn ~drain:Agg.Cont.drain_rows ~wire:wire_row updates

let run ~seed ~seconds ~trace ~workdir : outcome =
  let inp = inputs ~seed ~seconds in
  (* segmentation is part of set-up *)
  let segment_s = ref [] in
  let sw =
    serve_writes ~workdir ~db:inp.db ~kinds:(List.map kind inp.pois) ~lo ~hi ~trace (fun () ->
        let updates, dt = time (fun () -> Ingest.segment inp.samples) in
        segment_s := dt :: !segment_s;
        updates)
  in
  let nupd = List.length sw.updates in
  let store () = replica_store ~workdir inp.db in
  let plain = if trace then Some (replica ~store:(store ()) inp sw.updates) else None in
  let of_replica (p : _ replay) = reference_of ~events:0 p.streams in
  let expected =
    reference ~key:(Printf.sprintf "trace-ingest-u%d" (units ~seconds)) (fun () ->
        of_replica (match plain with Some p -> p | None -> replica inp sw.updates))
  in
  let final_db = List.fold_left DB.apply_exn inp.db sw.updates in
  let failed, notes = check_writes sw ~expected ~final_db in
  let agg_rows = Hashtbl.fold (fun _ s a -> a + List.length s.pieces_rev) sw.streams 0 in
  let work =
    [ ("accepted_updates", sw.run.accepted); ("pushed_pieces", agg_rows);
      ("engine_events", 0); ("agg_rows", agg_rows); ("query_pieces", 0) ]
  in
  let e2e = writes_e2e sw in
  let layer, lnotes, traced_failed =
    match sw.stats, plain with
    | None, _ | _, None -> ([], [], 0)
    | Some (s0, s1), Some plain ->
      let traced, wall, trows, lnotes =
        traced_pass ~workdir (fun () -> replica ~store:(store ()) inp sw.updates)
      in
      let traced_ok = traced.streams = plain.streams && of_replica plain = expected in
      let astats = Array.map Agg.Cont.stats plain.subs in
      let asum f = float_of_int (Array.fold_left (fun a s -> a + f s) 0 astats) in
      let rows =
        server_layer ~accepted:sw.run.accepted ~s0 ~s1
        @ [ age_row ~block:(nupd / 4) sw.run.upd_s;
            ("client.event_bytes_per_update",
             ratio (float_of_int sw.run.event_bytes) (float_of_int nupd), "B");
            ("client.verdict_to_pong_ms", ms (Served.median sw.run.v2p_s), "ms");
            span_row "mod.apply_us" ~layer:"mod" ~op:"apply";
            span_row "durable.classify_us" ~layer:"durable" ~op:"classify";
            span_row "durable.append_us" ~layer:"durable" ~op:"append";
            span_row "agg.apply_us" ~layer:"agg" ~op:"step";
            ("agg.forwarded_frac",
             ratio (asum (fun s -> s.AggM.forwarded)) (asum (fun s -> s.AggM.updates * s.AggM.pois)),
             "ratio");
            ("agg.admitted", asum (fun s -> s.AggM.admitted), "count");
            ("agg.pruned", asum (fun s -> s.AggM.pruned), "count");
            ("agg.rows", asum (fun s -> s.AggM.rows), "count");
            ("ingest.segment_ms", ms (Served.median !segment_s), "ms");
            ("ingest.updates", float_of_int nupd, "count") ]
        @ proto_rows ~pieces:traced.pieces
        @ mod_layer plain.final_db
        @ index_layer plain.final_db ~lo ~hi
        @ [ ("traced.overhead_ratio", ratio wall plain.wall, "ratio") ]
        @ trows
      in
      ( rows,
        (if traced_ok then []
         else [ "MISMATCH replica rows differ from the untraced replica or the reference" ])
        @ [ "unavailable: core.monitor.* and core.engine.* (Agg.Cont keeps its per-POI \
             monitors private; agg.apply_us and server.monitor_step_ms time them whole)" ]
        @ lnotes,
        if traced_ok then 0 else 1 )
  in
  { attempted = nupd; failed = failed + traced_failed; work; e2e; layer; notes = notes @ lnotes }

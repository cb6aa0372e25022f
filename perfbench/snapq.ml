(* snapshot-queries: one client sends a seeded schedule of one-shot k-NN
   and range queries over a static MOD of 64 objects.  All the cost is in
   one-shot sweeps, curve construction, exact numerics and timeline
   rendering; monitors, the durable path and fanout are bypassed. *)

open Drive
module Knn = Moq_core.Knn.Make (B)
module Range = Moq_core.Range_query.Make (B)
module Gen = Moq_workload.Gen

let n = 64
let base_seed = 11

type query = { kind : Proto.query_kind; lo : Q.t; hi : Q.t }

(* Four quarters replay one pattern of 25 queries per work unit, quarter q
   shifted by q/1000 in time: no query repeats, and a quarter costs what
   the others cost, so server.age_ratio isolates the server.  The pattern
   alternates knn (k = 1, 2, 4, 8 in turn) and range queries with windows
   [lo, lo + len] inside [0, 20], drawn from the base seed: query cost
   follows the windows as strongly as the fleet's cost follows its
   geometry, so the seed only picks the MOD's symmetry. *)
let inputs ~seed ~seconds =
  let db = transform_db ~seed (Gen.uniform_db ~seed:base_seed ~n ()) in
  let per_quarter = 25 * units ~seconds in
  let shape = Random.State.make [| base_seed; 0x5a9 |] in
  let seen = Hashtbl.create 64 in
  let rec fresh i =
    let len = 2 + Random.State.int shape 9 in
    let lo2 = Random.State.int shape (2 * (19 - len) + 1) in
    let kind =
      if i mod 2 = 0 then Proto.Qk_knn (List.nth [ 1; 2; 4; 8 ] (i / 2 mod 4))
      else Proto.Qk_range (Q.of_int (100_000 * (1 + Random.State.int shape 15)))
    in
    if Hashtbl.mem seen (kind, lo2, len) then fresh i
    else begin
      Hashtbl.replace seen (kind, lo2, len) ();
      (kind, Q.div (Q.of_int lo2) (Q.of_int 2), Q.of_int len)
    end
  in
  let pattern = List.init per_quarter fresh in
  let queries =
    List.concat_map
      (fun q ->
        let shift = Q.div (Q.of_int q) (Q.of_int 1000) in
        List.map
          (fun (kind, lo, len) -> { kind; lo = Q.add lo shift; hi = Q.add (Q.add lo len) shift })
          pattern)
      [ 0; 1; 2; 3 ]
  in
  (db, queries)

let gdist () = Gdist.euclidean_sq ~gamma:(gamma 2)

(* The sweep the server runs for [q]: its timeline and engine counts. *)
let answer db q ~id =
  let gdist = gdist () in
  match q.kind with
  | Proto.Qk_knn k ->
    let r =
      Ledger.span ~layer:"core.sweep" ~op:"knn" ~id (fun () ->
          Knn.run ~db ~gdist ~k ~lo:q.lo ~hi:q.hi)
    in
    (r.Knn.timeline, r.Knn.stats)
  | Proto.Qk_range bound ->
    let r =
      Ledger.span ~layer:"core.sweep" ~op:"range" ~id (fun () ->
          Range.run ~db ~gdist ~bound ~lo:q.lo ~hi:q.hi)
    in
    (r.Range.timeline, r.Range.stats)

type pass = { answers : Proto.piece list list; events : int; comparisons : int;
              sweep_s : float; resp_bytes : int; wall : float }

let replica db queries =
  let t_start = now () in
  let events = ref 0 and cmps = ref 0 and sweep_s = ref 0. and bytes = ref 0 in
  let answers =
    List.mapi
      (fun i q ->
        let id = i + 1 in
        let (timeline, (s : Knn.E.stats)), dt = time (fun () -> answer db q ~id) in
        sweep_s := !sweep_s +. dt;
        events := !events + s.Knn.E.crossings + s.Knn.E.births + s.Knn.E.deaths + s.Knn.E.jumps;
        cmps := !cmps + s.Knn.E.comparisons;
        let msg =
          Ledger.span ~layer:"proto" ~op:"render" ~id (fun () ->
              Proto.render_server_msg (Proto.R_query (List.map wire_piece timeline)))
        in
        bytes := !bytes + String.length msg;
        match Ledger.span ~layer:"proto" ~op:"parse" ~id (fun () -> Proto.parse_server_msg msg) with
        | Ok (Proto.R_query ps) -> ps
        | _ -> failwith "replica: query response did not round-trip")
      queries
  in
  { answers; events = !events; comparisons = !cmps; sweep_s = !sweep_s; resp_bytes = !bytes;
    wall = now () -. t_start }

let run ~seed ~seconds ~trace ~workdir : outcome =
  let db, queries = inputs ~seed ~seconds in
  let nq = List.length queries in
  let dir_n = ref 0 in
  let setup () =
    incr dir_n;
    let dir = Filename.concat workdir (Printf.sprintf "store-%d" !dir_n) in
    let child = Served.spawn (Served.config ~dir ~db) in
    (child, Served.connect child, Served.connect child)
  in
  let teardown (child, c, o) =
    Client.close c;
    Client.close o;
    Served.kill_child child;
    Served.rm_rf child.Served.dir
  in
  let (child, client, observer), setup_s = repeat_setup setup teardown in
  let s0 = if trace then Some (Served.stats client) else None in
  let lat = ref [] and del = ref [] and answers = ref [] and failed = ref 0 in
  let cpu0 = Served.cpu_s child.Served.pid in
  let t_start = now () in
  List.iter
    (fun q ->
      let t0 = now () in
      let resp = Client.request client (Proto.Query { kind = q.kind; lo = q.lo; hi = q.hi }) in
      let t1 = now () in
      let pong = Client.request observer Proto.Ping in
      let t2 = now () in
      match resp, pong with
      | Ok (Proto.R_query ps), Ok (Proto.R_pong _) ->
        lat := (t1 -. t0) :: !lat;
        del := (t2 -. t0) :: !del;
        answers := Some ps :: !answers
      | _ ->
        incr failed;
        answers := None :: !answers)
    queries;
  let wall = now () -. t_start in
  let server_cpu_s = Served.cpu_s child.Served.pid -. cpu0 in
  let s1 = if trace then Some (Served.stats client) else None in
  let rss_mb = Served.vm_hwm_mb child.Served.pid in
  teardown (child, client, observer);
  let lat = List.rev !lat and del = List.rev !del in
  let plain = if trace then Some (replica db queries) else None in
  let of_replica p = reference_of ~events:p.events (Array.of_list p.answers) in
  let expected =
    reference ~key:(Printf.sprintf "snapshot-queries-u%d" (units ~seconds)) (fun () ->
        of_replica (match plain with Some p -> p | None -> replica db queries))
  in
  let notes = ref [] in
  List.iteri
    (fun i served ->
      match served with
      | Some ps when matches expected i ps -> ()
      | Some _ ->
        incr failed;
        notes := Printf.sprintf "MISMATCH query %d differs from the in-process sweep" (i + 1) :: !notes
      | None -> ())
    (List.rev !answers);
  let qpieces = List.fold_left (fun a -> function Some ps -> a + List.length ps | None -> a) 0 !answers in
  let work =
    [ ("accepted_updates", 0); ("pushed_pieces", 0); ("engine_events", expected.events);
      ("agg_rows", 0); ("query_pieces", qpieces) ]
  in
  let e2e = e2e ~ops:(List.length lat) ~wall ~lat ~deliver:del ~setup_s ~server_cpu_s ~rss_mb in
  let notes =
    List.rev !notes
    @ [ tail_note "op (QUERY -> answer)" lat; tail_note "deliver (QUERY -> observer PONG)" del ]
  in
  let layer, lnotes =
    match s0, s1, plain with
    | Some s0, Some s1, Some plain ->
      let traced, wall, trows, lnotes = traced_pass ~workdir (fun () -> replica db queries) in
      let lnotes =
        if traced.answers = plain.answers && of_replica plain = expected then lnotes
        else begin
          incr failed;
          "MISMATCH replica answers differ from the untraced replica or the reference" :: lnotes
        end
      in
      let curve_s =
        let g = gdist () in
        List.init 20 (fun _ ->
            snd (time (fun () -> List.map (fun (_, tr) -> Gdist.curve g tr) (DB.objects db))))
      in
      let ev = float_of_int plain.events in
      let rows =
        server_layer ~accepted:0 ~s0 ~s1
        @ [ age_row ~block:(nq / 4) lat;
            ("core.sweep.knn_ms", span_us ~layer:"core.sweep" ~op:"knn" /. 1e3, "ms");
            ("core.sweep.range_ms", span_us ~layer:"core.sweep" ~op:"range" /. 1e3, "ms");
            ("core.sweep.curve_build_ms", ms (Served.median curve_s), "ms");
            ("core.engine.events", ev, "count");
            ("core.engine.comparisons_per_event", ratio (float_of_int plain.comparisons) ev, "count");
            ("core.engine.us_per_event", 1e6 *. ratio plain.sweep_s ev, "us");
            ("proto.query_response_bytes", ratio (float_of_int plain.resp_bytes) (float_of_int nq), "B") ]
        @ proto_rows ~pieces:qpieces
        @ mod_layer db
        @ index_layer db ~lo:Q.zero ~hi:(Q.of_int 20)
        @ [ ("traced.overhead_ratio", ratio wall plain.wall, "ratio") ]
        @ trows
      in
      (rows, lnotes)
    | _ -> ([], [])
  in
  { attempted = nq; failed = !failed; work; e2e; layer; notes = notes @ lnotes }

(* What every workload shares: the outcome of a run, the closed-loop update
   loop of the two write workloads, the wire-side event accounting, the
   server stage rows read from STATS and the replica's wire rendering. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module Oid = Moq_mod.Oid
module Proto = Moq_proto.Proto
module Client = Moq_server.Client
module Store = Moq_durable.Store
module Sanitize = Moq_durable.Sanitize
module IO = Moq_mod.Mod_io
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist
module B = Cbackend.B

type metric = string * float * string  (* name, value, unit *)

type outcome = {
  attempted : int;
  failed : int;
  work : (string * int) list;  (* fixed-work counts: equal on every run of a seed *)
  e2e : metric list;
  layer : metric list;  (* filled by traced runs only *)
  notes : string list;  (* report lines printed above the result *)
}

let now = Unix.gettimeofday
let ms s = s *. 1e3
let ratio a b = if b = 0. then 0. else a /. b

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Work units of a run: one per 20 s of --seconds, rounded, at least one.
   The served phase of a unit takes 10–25 s on a 2-vCPU host, and a whole
   run 12–30 s: 70 runs, the count of a full benchmark pass over three
   workloads, fit in an hour on a host twice as slow. *)
let units ~seconds = max 1 ((seconds + 10) / 20)

(* Run [setup] at least 9 times and until 1.5 s have gone, and keep the
   last result: set-up time is reported as the median, so work moved into
   set-up shows.  A cheap set-up (15 ms on snapshot-queries) is repeated
   more, so that its median is as steady as that of a costly one. *)
let repeat_setup setup teardown =
  let t_start = now () in
  let rec go i acc =
    let r, dt = time setup in
    if i + 1 < 9 || now () -. t_start < 1.5 then begin
      teardown r;
      go (i + 1) (dt :: acc)
    end
    else (r, Served.median (dt :: acc))
  in
  go 0 []

(* ---- seeded inputs with seed-independent cost ----

   A workload's cost depends on its geometry far more than on its size: on
   fleet-subs, free [Gen.uniform_db] seeds gave per-update medians from 74
   to 220 ms.  Such workloads draw one fixed base geometry and let the seed
   pick one of the eight symmetries of the square, an isometry fixing the
   origin: every distance, crossing and OID is kept, so every seed does the
   same work on different coordinates.  (Relabeling OIDs as well moved
   fleet-subs throughput by 7%: label order breaks ties in the sweep.) *)

let symmetry ~seed v =
  let s = seed land 7 in
  let x = Qvec.get v 0 and y = Qvec.get v 1 in
  let x, y = if s land 1 = 1 then (y, x) else (x, y) in
  let x = if s land 2 = 2 then Q.neg x else x in
  let y = if s land 4 = 4 then Q.neg y else y in
  Qvec.of_list [ x; y ]

let transform_db ~seed db =
  let f = symmetry ~seed in
  List.fold_left
    (fun acc (o, tr) ->
      DB.add_initial acc o
        (T.of_pieces
           (List.map (fun (p : T.piece) -> { p with T.a = f p.T.a; b = f p.T.b }) (T.pieces tr))))
    (DB.empty ~dim:(DB.dim db) ~tau:(DB.last_update db))
    (DB.objects db)

(* ---- subscription streams as received ---- *)

type stream = {
  mutable pieces_rev : Proto.piece list;
  mutable next_seq : int;
  mutable lost : int;  (* sequence numbers skipped or covered by EVENT-DROPPED *)
  mutable dup : int;  (* sequence numbers delivered twice *)
}

let new_stream () = { pieces_rev = []; next_seq = 0; lost = 0; dup = 0 }

let stream_pieces s = List.rev s.pieces_rev
let stream_faults s = s.lost + s.dup

(* File one pushed message; returns its payload bytes. *)
let absorb streams msg =
  let get sub =
    match Hashtbl.find_opt streams sub with
    | Some s -> s
    | None ->
      let s = new_stream () in
      Hashtbl.replace streams sub s;
      s
  in
  (match msg with
   | Proto.E_pieces { sub; first_seq; pieces } ->
     let s = get sub in
     if first_seq > s.next_seq then s.lost <- s.lost + (first_seq - s.next_seq)
     else if first_seq < s.next_seq then s.dup <- s.dup + (s.next_seq - first_seq);
     s.pieces_rev <- List.rev_append pieces s.pieces_rev;
     s.next_seq <- first_seq + List.length pieces
   | Proto.E_dropped { sub; from_seq; to_seq } ->
     let s = get sub in
     s.lost <- s.lost + (to_seq - from_seq + 1);
     s.next_seq <- to_seq + 1
   | _ -> ());
  String.length (Proto.render_server_msg msg)

(* ---- the replica's wire rendering, as the server renders ---- *)

let gamma dim = T.stationary ~start:(Q.of_int (-1_000_000_000)) (Qvec.zero dim)

let instant i = Format.asprintf "%a" B.pp_instant i

module TL = Moq_core.Timeline.Make (B)

let wire_piece = function
  | TL.At (i, s) -> Proto.P_at (instant i, Oid.Set.elements s)
  | TL.Span (a, b, s) -> Proto.P_span (instant a, instant b, Oid.Set.elements s)

(* ---- reference outputs, computed once per checkout ----

   A seed only picks an isometry of the inputs (see [symmetry]), which keeps
   every distance, crossing instant and OID, so a workload's outputs (its
   subscription streams, agg rows and query answers) are the same for every
   seed of one size.  The first run of a workload and size in a checkout
   computes them with the in-process replica and keeps one digest per stream
   under .perfbench/reference/.  Later runs check what the server sent
   against those digests instead of replaying the whole stream again.  A
   traced run always replays, and checks its replica against them too.
   The file is named by the digest of this executable as well, so a
   rebuilt program or benchmark computes its own reference. *)

type reference = {
  digests : string array;  (* per subscription or query, of the simplified pieces *)
  events : int;  (* the replica's engine events: a work count *)
}

let digest pieces =
  Digest.to_hex
    (Digest.string
       (Proto.render_server_msg
          (Proto.E_pieces { sub = 0; first_seq = 0; pieces = Proto.simplify_pieces pieces })))

let reference_of ~events streams = { digests = Array.map digest streams; events }

let reference ~key compute =
  let dir = Filename.concat ".perfbench" "reference" in
  let path = Filename.concat dir (Printf.sprintf "%s-%s.txt" key (Lazy.force Served.exe_digest)) in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let events = Scanf.sscanf (input_line ic) "events %d" Fun.id in
    let rec lines acc =
      match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
    in
    let digests = Array.of_list (lines []) in
    close_in ic;
    { digests; events }
  end
  else begin
    let r = compute () in
    Served.mkdir_p dir;
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    Printf.fprintf oc "events %d\n" r.events;
    Array.iter (fun d -> output_string oc (d ^ "\n")) r.digests;
    close_out oc;
    Sys.rename tmp path;
    r
  end

(* Whether [pieces] match the reference's stream [i]. *)
let matches (r : reference) i pieces = i < Array.length r.digests && digest pieces = r.digests.(i)

(* ---- the closed-loop update loop ---- *)

type upd_run = {
  upd_s : float list;  (* UPDATE sent -> verdict, in stream order *)
  deliver_s : float list;  (* UPDATE sent -> PONG on the subscriber connection *)
  v2p_s : float list;  (* verdict -> that PONG *)
  accepted : int;
  upd_failed : int;
  event_bytes : int;
  wall : float;
}

(* One ordered writer: send each update, wait for its verdict, then PING the
   subscriber connection — the PONG queues behind every event the update
   pushed — and file those events.  A transport error ends the loop; the
   updates not sent count as failed. *)
let drive_updates ~writer ~subscriber ~streams updates =
  let upd = ref [] and del = ref [] and v2p = ref [] in
  let accepted = ref 0 and failed = ref 0 and bytes = ref 0 in
  let t_start = now () in
  let rec go = function
    | [] -> ()
    | u :: rest ->
      let t0 = now () in
      let verdict = Client.request writer (Proto.Update u) in
      let t1 = now () in
      let pong = Client.request subscriber Proto.Ping in
      let t2 = now () in
      List.iter
        (fun m -> bytes := !bytes + absorb streams m)
        (Client.drain_events subscriber);
      (match verdict, pong with
       | Ok (Proto.R_update Proto.V_accepted), Ok (Proto.R_pong _) ->
         incr accepted;
         upd := (t1 -. t0) :: !upd;
         del := (t2 -. t0) :: !del;
         v2p := (t2 -. t1) :: !v2p;
         go rest
       | Ok _, Ok _ ->
         incr failed;
         go rest
       | Error _, _ | _, Error _ -> failed := !failed + 1 + List.length rest)
  in
  go updates;
  { upd_s = List.rev !upd; deliver_s = List.rev !del; v2p_s = List.rev !v2p;
    accepted = !accepted; upd_failed = !failed; event_bytes = !bytes;
    wall = now () -. t_start }

(* The end-to-end metrics of a run: [ops] completed in [wall] seconds, op
   latencies [lat] and delivery latencies [deliver], in op order, and the
   server's CPU seconds over the same loop.  Means, not percentiles: per-op
   costs are multi-modal on fleet-subs and were quantised in 2.1 ms steps
   on trace-ingest, and a percentile there jumps between modes from run
   to run. *)
let e2e ~ops ~wall ~lat ~deliver ~setup_s ~server_cpu_s ~rss_mb : metric list =
  [ ("setup_s", setup_s, "s");
    ("ops_per_s", float_of_int ops /. wall, "1/s");
    ("op_mean_ms", ms (Served.mean lat), "ms");
    ("op_tail_ms", ms (Served.tail_mean 0.1 lat), "ms");
    ("deliver_mean_ms", ms (Served.mean deliver), "ms");
    ("server_cpu_ms", ms (server_cpu_s /. float_of_int ops), "ms");
    ("server_rss_mb", rss_mb, "MiB") ]

(* Growth of op latency with the age of the server, from outside.  A
   per-layer row: it is a ratio of two blocks of one run, so a host whose
   speed drifts within a run moves it — its spread over seeds reached 0.26
   of its median on a busy 2-vCPU host, against 0.01–0.04 on a quiet one. *)
let age_row ~block lat : metric = ("server.age_ratio", Served.age_ratio ~block lat, "ratio")

let tail_note name xs =
  Printf.sprintf "%s: %d samples, p50 %.2f ms, p90 %.2f ms (the tail mean is over the slowest %d)"
    name (List.length xs) (ms (Served.pct 0.5 xs)) (ms (Served.pct 0.9 xs))
    (max 1 (int_of_float (Float.round (0.1 *. float_of_int (List.length xs)))))

(* ---- the served half of a write workload ---- *)

type served_writes = {
  updates : U.t list;
  run : upd_run;
  streams : (int, stream) Hashtbl.t;  (* by subscription id *)
  subs : int list;  (* subscription ids, in the order of [kinds] *)
  setup_s : float;
  server_cpu_s : float;  (* over the timed loop *)
  rss_mb : float;
  stats : (Served.stats * Served.stats) option;  (* around the timed loop, traced runs *)
  store_dir : string;
}

(* Set up repeatedly (the server child with its seeded store, a writer and a
   subscriber connection, one subscription per kind over [lo, hi]; [prepare]
   runs first and yields the updates), drive the updates from the last
   set-up, then SIGKILL the child: its store is left as a crash leaves it. *)
let serve_writes ~workdir ~db ~kinds ~lo ~hi ~trace prepare =
  let n = ref 0 in
  let setup () =
    let updates = prepare () in
    incr n;
    let dir = Filename.concat workdir (Printf.sprintf "store-%d" !n) in
    let child = Served.spawn (Served.config ~dir ~db) in
    let writer = Served.connect child and subscriber = Served.connect child in
    let subs = List.map (fun kind -> Served.subscribe subscriber ~kind ~lo ~hi) kinds in
    (updates, child, writer, subscriber, subs)
  in
  let close (_, child, writer, subscriber, _) =
    Client.close writer;
    Client.close subscriber;
    Served.kill_child child
  in
  let ((updates, child, writer, subscriber, subs) as s), setup_s =
    repeat_setup setup (fun s ->
        close s;
        let _, child, _, _, _ = s in
        Served.rm_rf child.Served.dir)
  in
  let streams = Hashtbl.create 16 in
  (* the already-valid prefixes pushed at subscribe time, outside the
     timed loop *)
  ignore (Served.request subscriber Proto.Ping);
  List.iter (fun m -> ignore (absorb streams m)) (Client.drain_events subscriber);
  let s0 = if trace then Some (Served.stats writer) else None in
  let cpu0 = Served.cpu_s child.Served.pid in
  let run = drive_updates ~writer ~subscriber ~streams updates in
  let server_cpu_s = Served.cpu_s child.Served.pid -. cpu0 in
  let stats = Option.map (fun s0 -> (s0, Served.stats writer)) s0 in
  let rss_mb = Served.vm_hwm_mb child.Served.pid in
  close s;
  { updates; run; streams; subs; setup_s; server_cpu_s; rss_mb; stats;
    store_dir = child.Served.dir }

(* The output checks of a write workload: no sequence number lost or
   duplicated, every subscription stream equal to the reference's, and the
   killed server's store recovering to [final_db], the MOD with every update
   applied, byte for byte.  Returns the failures (rejected updates included)
   and report lines. *)
let check_writes sw ~expected ~final_db =
  let failed = ref sw.run.upd_failed and notes = ref [] in
  let fail what =
    incr failed;
    notes := ("MISMATCH " ^ what) :: !notes
  in
  List.iteri
    (fun i sub ->
      let s = Option.value ~default:(new_stream ()) (Hashtbl.find_opt sw.streams sub) in
      if stream_faults s > 0 then begin
        failed := !failed + stream_faults s;
        notes := Printf.sprintf "sub %d: %d lost, %d duplicated" sub s.lost s.dup :: !notes
      end;
      if not (matches expected i (stream_pieces s)) then
        fail (Printf.sprintf "subscription %d stream differs from the reference" sub))
    sw.subs;
  (match Store.recover ~dir:sw.store_dir with
   | Ok rc when IO.db_to_string rc.Store.db = IO.db_to_string final_db -> ()
   | Ok _ -> fail "recovered store differs from the applied MOD"
   | Error e -> fail ("store recovery failed: " ^ e));
  ( !failed,
    List.rev !notes
    @ [ tail_note "op (UPDATE -> verdict)" sw.run.upd_s;
        tail_note "deliver (UPDATE -> subscriber PONG)" sw.run.deliver_s ] )

let writes_e2e sw =
  e2e ~ops:sw.run.accepted ~wall:sw.run.wall ~lat:sw.run.upd_s ~deliver:sw.run.deliver_s
    ~setup_s:sw.setup_s ~server_cpu_s:sw.server_cpu_s ~rss_mb:sw.rss_mb

(* ---- server stage rows from two STATS snapshots ---- *)

let server_layer ~accepted ~s0 ~s1 : metric list =
  let hd name =
    let c0, x0 = Served.hist s0 name and c1, x1 = Served.hist s1 name in
    (c1 -. c0, x1 -. x0)
  in
  let cd name = Served.counter s1 name -. Served.counter s0 name in
  let acc = float_of_int accepted in
  let per_upd_ms name = ratio (snd (hd name) /. 1e6) acc in
  let mean_ms name = let c, x = hd name in ratio (x /. 1e6) c in
  let fan = per_upd_ms "moq_stage_fanout_ns"
  and san = per_upd_ms "moq_stage_sanitize_ns"
  and app = per_upd_ms "moq_stage_store_append_ns"
  and ing = per_upd_ms "moq_stage_ingest_ns" in
  let ckc, cks = hd "moq_checkpoint_seconds" in
  let qc, qs = hd "moq_server_rpc_query_seconds" in
  [ ("server.fanout_ms", fan, "ms");
    ("server.monitor_steps_per_update", ratio (fst (hd "moq_stage_monitor_ns")) acc, "count");
    ("server.monitor_step_ms", mean_ms "moq_stage_monitor_ns", "ms");
    ("server.sanitize_ms", san, "ms");
    ("server.append_ms", app, "ms");
    ("server.fsync_ms", per_upd_ms "moq_stage_fsync_ns", "ms");
    ("server.unattributed_ms", (if accepted = 0 then 0. else ing -. (san +. app +. fan)), "ms");
    ("server.queue_ms", mean_ms "moq_stage_queue_ns", "ms");
    ("server.write_ms", mean_ms "moq_stage_write_ns", "ms");
    ("server.pieces_per_update", ratio (cd "moq_server_pushed_events_total") acc, "count");
    ("server.query_ms", ms (ratio qs qc), "ms");
    ("durable.fsyncs_per_update", ratio (cd "moq_wal_fsyncs_total") acc, "count");
    ("durable.wal_bytes_per_update", ratio (cd "moq_wal_bytes_written_total") acc, "B");
    ("durable.checkpoints", ckc, "count");
    ("durable.checkpoint_ms", ms (ratio cks ckc), "ms") ]

(* ---- per-layer rows common to every traced replica ---- *)

let mod_layer db : metric list =
  let counts = List.map (fun (_, tr) -> List.length (T.pieces tr)) (DB.objects db) in
  [ ("mod.pieces_max", float_of_int (List.fold_left max 0 counts), "count");
    ("mod.pieces_total", float_of_int (List.fold_left ( + ) 0 counts), "count") ]

let index_layer db ~lo ~hi : metric list =
  let _, dt = time (fun () -> Moq_index.Grid.build ~cell:256.0 ~lo ~hi db) in
  [ ("index.build_ms", ms dt, "ms") ]

(* ---- the in-process replica ---- *)

type 'a replay = {
  subs : 'a array;
  streams : Proto.piece list array;  (* per subscription, as parsed back *)
  final_db : DB.t;
  steps : float list;  (* seconds per subscription step, in order *)
  pieces : int;  (* pieces through render + parse *)
  wall : float;
}

(* Replay [updates] through the layers' public functions in the served
   order: MOD apply, sanitize + WAL append (when [store] is given), then per
   subscription its step, its drain and the wire round trip of what it
   drained.  [create] builds the subscriptions; spans name their [layer]. *)
let replay ?store ~layer ~db ~create ~step ~drain ~wire updates =
  let t_start = now () in
  let subs = create () in
  let n = Array.length subs in
  let streams = Array.make n [] and seqs = Array.make n 0 in
  let pieces = ref 0 and steps = ref [] in
  let push i id =
    match Ledger.span ~layer ~op:"drain" ~id (fun () -> drain subs.(i)) with
    | [] -> ()
    | fresh ->
      let msg =
        Ledger.span ~layer:"proto" ~op:"render" ~id (fun () ->
            Proto.render_server_msg
              (Proto.E_pieces { sub = i; first_seq = seqs.(i); pieces = List.map wire fresh }))
      in
      (match Ledger.span ~layer:"proto" ~op:"parse" ~id (fun () -> Proto.parse_server_msg msg) with
       | Ok (Proto.E_pieces { pieces = ps; _ }) ->
         streams.(i) <- List.rev_append ps streams.(i);
         seqs.(i) <- seqs.(i) + List.length ps;
         pieces := !pieces + List.length ps
       | _ -> failwith "replica: event frame did not round-trip")
  in
  Array.iteri (fun i _ -> push i 0) subs;
  let db = ref db in
  List.iteri
    (fun j u ->
      let id = j + 1 in
      Ledger.span ~layer:"mod" ~op:"apply" ~id (fun () -> db := DB.apply_exn !db u);
      (match store with
       | Some (san, st) ->
         ignore
           (Ledger.span ~layer:"durable" ~op:"classify" ~id (fun () ->
                Sanitize.classify san (Store.db st) u));
         Ledger.span ~layer:"durable" ~op:"append" ~id (fun () ->
             match Store.append st u with
             | Ok () -> ()
             | Error _ -> failwith "replica: store refused an update")
       | None -> ());
      Array.iteri
        (fun i sub ->
          let t0 = now () in
          Ledger.span ~layer ~op:"step" ~id (fun () -> step sub u);
          steps := (now () -. t0) :: !steps;
          push i id)
        subs)
    updates;
  { subs; streams = Array.map List.rev streams; final_db = !db; steps = List.rev !steps;
    pieces = !pieces; wall = now () -. t_start }

(* A fresh replica store seeded with [db], fsync on as in the server. *)
let replica_store =
  let n = ref 0 in
  fun ~workdir db ->
    incr n;
    let dir = Filename.concat workdir (Printf.sprintf "replica-%d" !n) in
    (Sanitize.create (), Store.init ~dir db)

(* ---- per-layer rows of a traced replica ---- *)

(* Mean microseconds of a span kind; 0 when the workload never calls it. *)
let span_us ~layer ~op =
  match Ledger.durations ~layer ~op with [] -> 0. | d -> 1e6 *. Served.mean d

let span_row name ~layer ~op = (name, span_us ~layer ~op, "us")

let proto_rows ~pieces : metric list =
  let sum op = List.fold_left ( +. ) 0. (Ledger.durations ~layer:"proto" ~op) in
  [ ("proto.render_us_per_piece", 1e6 *. ratio (sum "render") (float_of_int pieces), "us");
    ("proto.parse_us_per_piece", 1e6 *. ratio (sum "parse") (float_of_int pieces), "us") ]

(* Run [f] with spans and backend timing on; write the spans out.  Returns
   [f]'s result, its wall time, and the rows every traced replica reports:
   the backend buckets, the heap at the end, and the ledger — layer self
   times, the counting backend as its own layer and the unattributed
   remainder — as coverage rows and report lines. *)
let traced_pass ~workdir f =
  Ledger.reset ();
  Cbackend.reset ();
  Ledger.on := true;
  Cbackend.timing := true;
  let r, wall = time f in
  let heap_words = (Gc.quick_stat ()).Gc.heap_words in
  Ledger.on := false;
  Cbackend.timing := false;
  Ledger.write (Filename.concat workdir "spans.jsonl");
  let backend =
    List.concat_map
      (fun (name, (b : Cbackend.bucket)) ->
        [ (Printf.sprintf "core.backend.%s_calls" name, float_of_int b.calls, "count");
          (Printf.sprintf "core.backend.%s_ms" name, ms b.secs, "ms") ])
      Cbackend.buckets
  in
  let layers = Ledger.self_by_layer () @ [ ("core.backend", Cbackend.total_secs ()) ] in
  let named = List.fold_left (fun a (_, s) -> a +. s) 0. layers in
  let rows =
    backend
    @ [ ("traced.heap_words_end", float_of_int heap_words, "words");
        ("traced.coverage", ratio named wall, "ratio");
        ("traced.unattributed_ms", ms (wall -. named), "ms");
        ("traced.wall_ms", ms wall, "ms") ]
  in
  let line l s = Printf.sprintf "ledger %-14s %10.2f ms  %5.1f%%" l (ms s) (100. *. ratio s wall) in
  let notes =
    List.map (fun (l, s) -> line l s) layers @ [ line "unattributed" (wall -. named) ]
  in
  (r, wall, rows, notes)

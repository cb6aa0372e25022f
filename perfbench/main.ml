(* Entry point of the served-system benchmark (run it through run.py):

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints report lines, then one JSON line
   {"correct", "attempted", "failed", "metrics", "work"}: end-to-end
   metrics with --trace 0, per-layer metrics with --trace 1.  Work counts
   are also kept under .perfbench/counts/, and a run whose counts differ
   from an earlier run of the same workload, seed, size and executable is
   incorrect.
   A traced run leaves its spans in .perfbench/spans-<key>.jsonl. *)

module Json = Moq_obs.Json

let workloads =
  [ ("fleet-subs", Fleet.run); ("snapshot-queries", Snapq.run);
    ("trace-ingest", Tingest.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (fleet-subs|snapshot-queries|trace-ingest) --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let a = go [] (List.tl (Array.to_list Sys.argv)) in
  let int k = match Option.bind (List.assoc_opt k a) int_of_string_opt with Some v -> v | None -> usage () in
  let w = match List.assoc_opt "workload" a with Some w -> w | None -> usage () in
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (w, int "seed", seconds, trace = 1)

(* Compare this run's work counts with the first run of the same key and
   executable. *)
let check_work ~key work =
  let dir = Filename.concat ".perfbench" "counts" in
  Served.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-%s.txt" key (Lazy.force Served.exe_digest)) in
  let line = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) work) in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let prev = input_line ic in
    close_in ic;
    if prev = line then None else Some prev
  end
  else begin
    let oc = open_out path in
    output_string oc (line ^ "\n");
    close_out oc;
    None
  end

let () =
  let w, seed, seconds, trace = parse_args () in
  let run = match List.assoc_opt w workloads with Some r -> r | None -> usage () in
  let workdir = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Served.mkdir_p workdir;
  let key = Printf.sprintf "%s-seed%d-s%d" w seed seconds in
  let spans = Filename.concat ".perfbench" (Printf.sprintf "spans-%s.jsonl" key) in
  let o =
    Fun.protect
      ~finally:(fun () ->
        let f = Filename.concat workdir "spans.jsonl" in
        if Sys.file_exists f then Sys.rename f spans;
        Served.rm_rf workdir)
      (fun () -> run ~seed ~seconds ~trace ~workdir)
  in
  let drift = check_work ~key o.Drive.work in
  List.iter print_endline o.Drive.notes;
  Printf.printf "work: %s\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) o.Drive.work));
  (match drift with
   | Some prev -> Printf.printf "WORK DRIFT: an earlier run of %s counted %s\n" key prev
   | None -> ());
  Printf.printf "failed_frac: %d/%d\n" o.Drive.failed o.Drive.attempted;
  if trace then Printf.printf "spans: %s\n" spans;
  let metric (name, v, unit) = (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]) in
  let metrics = if trace then o.Drive.layer else o.Drive.e2e in
  let correct =
    o.Drive.failed = 0 && drift = None
    && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Int o.Drive.attempted);
            ("failed", Json.Int o.Drive.failed);
            ("metrics", Json.Obj (List.map metric metrics));
            ("work", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) o.Drive.work)) ]))

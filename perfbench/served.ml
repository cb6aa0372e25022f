(* The served half of a run: the server in one forked child process, the
   benchmark as its wire client, and the numbers read from outside —
   latencies, STATS, the child's peak RSS and its store directory. *)

module Server = Moq_server.Server
module Client = Moq_server.Client
module Proto = Moq_proto.Proto
module Json = Moq_obs.Json
module DB = Moq_mod.Mobdb

type child = { pid : int; addr : Server.addr; dir : string }

let parent_pid = Unix.getpid ()
let live : int list ref = ref []

let kill_child c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) c.pid) !live

(* No child outlives the benchmark, whatever way it exits. *)
let () =
  at_exit (fun () ->
      if Unix.getpid () = parent_pid then
        List.iter
          (fun pid ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          !live)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Names what is kept across runs in .perfbench/ (reference outputs, work
   counts), so that a rebuilt program or benchmark starts afresh. *)
let exe_digest = lazy (Digest.to_hex (Digest.file Sys.executable_name))

(* [Server.default_config] with the two settings every workload changes. *)
let config ~dir ~db =
  { (Server.default_config ~listen:(Server.Tcp ("127.0.0.1", 0)) ~store_dir:dir) with
    Server.init_db = Some db; max_subs_per_session = 16 }

let spawn cfg =
  flush stdout;
  flush stderr;
  let rp, wp = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (try
       Unix.close rp;
       match Server.start cfg with
       | Error e ->
         prerr_endline ("server child: " ^ e);
         Unix._exit 1
       | Ok srv ->
         let port =
           match Server.bound_addr srv with Server.Tcp (_, p) -> p | _ -> 0
         in
         let oc = Unix.out_channel_of_descr wp in
         Printf.fprintf oc "%d\n%!" port;
         Server.run srv;
         Unix._exit 0
     with _ -> Unix._exit 1)
  | pid ->
    live := pid :: !live;
    Unix.close wp;
    let ic = Unix.in_channel_of_descr rp in
    let port =
      match int_of_string_opt (String.trim (input_line ic)) with
      | Some p -> p
      | None | (exception End_of_file) -> failwith "server child failed to start"
    in
    close_in ic;
    { pid; addr = Server.Tcp ("127.0.0.1", port); dir = cfg.Server.store_dir }

let connect c =
  match Client.connect c.addr with
  | Error e -> failwith ("connect: " ^ Client.error_to_string e)
  | Ok cl ->
    (match Client.hello cl with
     | Ok (Proto.R_hello _) -> cl
     | Ok _ -> failwith "handshake: unexpected response"
     | Error e -> failwith ("handshake: " ^ Client.error_to_string e))

let request cl req =
  match Client.request cl req with
  | Ok m -> m
  | Error e -> failwith (Client.error_to_string e)

let subscribe cl ~kind ~lo ~hi =
  match request cl (Proto.Subscribe { kind; lo; hi }) with
  | Proto.R_subscribe { sub } -> sub
  | Proto.R_err { code; msg } -> failwith (Printf.sprintf "subscribe: %s %s" code msg)
  | _ -> failwith "subscribe: unexpected response"

(* Peak resident set of the child, MiB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* CPU seconds (user + system, every thread) the child has used so far.
   Unlike wall time it leaves out the time the host lends to others. *)
let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* the fields after the parenthesised command name; utime and stime are
     the 12th and 13th, in USER_HZ = 100 ticks *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* ---- STATS read over the wire ---- *)

type stats = Json.t

let stats cl =
  match request cl (Proto.Stats `Json) with
  | Proto.R_stats body ->
    (match Json.of_string body with Ok j -> j | Error e -> failwith ("STATS: " ^ e))
  | _ -> failwith "STATS: unexpected response"

let num = function
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> 0.

let counter (s : stats) name =
  num (Option.bind (Json.member "counters" s) (Json.member name))

(* (count, sum) of a histogram; zeros when it was never observed. *)
let hist (s : stats) name =
  match Option.bind (Json.member "histograms" s) (Json.member name) with
  | None -> (0., 0.)
  | Some h -> (num (Json.member "count" h), num (Json.member "sum" h))

(* ---- order statistics ---- *)

(* Nearest-rank percentile of an unsorted sample; nan when empty. *)
let pct p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
  end

let median = pct 0.5
let mean xs = if xs = [] then nan else List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Mean of the slowest [frac] of a sample (at least one value): a tail that
   moves smoothly where a percentile jumps between the modes of a
   multi-modal or quantised latency distribution. *)
let tail_mean frac xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let k = max 1 (int_of_float (Float.round (frac *. float_of_int n))) in
  if n = 0 then nan else Array.fold_left ( +. ) 0. (Array.sub a (n - k) k) /. float_of_int k

(* Total of the last [block] samples over the total of the first [block]:
   growth with the age of the server.  Totals, not medians: per-update
   costs are multi-modal, and a block median jumps between modes. *)
let age_ratio ~block xs =
  let n = List.length xs in
  let sum l = List.fold_left ( +. ) 0. l in
  if block <= 0 || n < 2 * block then nan
  else
    sum (List.filteri (fun i _ -> i >= n - block) xs)
    /. sum (List.filteri (fun i _ -> i < block) xs)

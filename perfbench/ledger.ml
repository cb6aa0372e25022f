(* Spans recorded by the benchmark around its calls into each layer of the
   traced replica: layer, operation, start, end, parent span and one id per
   update or query.  Spans stay in memory and are written out at the end.
   A span's self time is its duration minus its child spans and minus the
   counting backend's time inside it (the backend is a layer of its own,
   timed per call rather than spanned). *)

type span = {
  layer : string;
  op : string;
  id : int;
  idx : int;
  parent : int;
  start : float;
  stop : float;
  bsecs : float;  (* counting-backend seconds inside the span *)
}

let on = ref false
let spans : span list ref = ref []
let next = ref 0
let stack : int list ref = ref []

let reset () =
  spans := [];
  next := 0;
  stack := []

let span ~layer ~op ~id f =
  if not !on then f ()
  else begin
    let idx = !next in
    incr next;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := idx :: !stack;
    let b0 = Cbackend.total_secs () in
    let start = Unix.gettimeofday () in
    let r = f () in
    let stop = Unix.gettimeofday () in
    stack := List.tl !stack;
    spans :=
      { layer; op; id; idx; parent; start; stop;
        bsecs = Cbackend.total_secs () -. b0 }
      :: !spans;
    r
  end

let dur s = s.stop -. s.start

(* Durations (seconds) of every span of [layer].[op], in start order. *)
let durations ~layer ~op =
  List.filter (fun s -> s.layer = layer && s.op = op) !spans
  |> List.sort (fun a b -> compare a.idx b.idx)
  |> List.map dur

(* Self seconds per layer, in first-seen order. *)
let self_by_layer () =
  let child_dur = Hashtbl.create 1024 and child_b = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent
            (v +. Option.value ~default:0. (Hashtbl.find_opt tbl s.parent))
        in
        add child_dur (dur s);
        add child_b s.bsecs
      end)
    !spans;
  let get tbl i = Option.value ~default:0. (Hashtbl.find_opt tbl i) in
  let acc = ref [] in
  List.iter
    (fun s ->
      let self =
        dur s -. get child_dur s.idx -. (s.bsecs -. get child_b s.idx)
      in
      acc :=
        match List.assoc_opt s.layer !acc with
        | Some v -> (s.layer, v +. self) :: List.remove_assoc s.layer !acc
        | None -> (s.layer, self) :: !acc)
    (List.rev !spans);
  List.sort compare !acc

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"layer\":%S,\"op\":%S,\"id\":%d,\"span\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"backend_s\":%.9f}\n"
        s.layer s.op s.id s.idx s.parent s.start s.stop s.bsecs)
    (List.rev !spans);
  close_out oc

(** Shared construction of a sweep instance from (MOD, g-distance, time
    terms): one curve per (object, time term), plus one constant curve per
    real constant of a query (paper, end of Section 5).  The object curves
    depend on the time terms only, so queries with the same time terms can
    share them. *)

module Oid = Moq_mod.Oid
module Q = Moq_numeric.Rat
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module Qpiece = Moq_poly.Piecewise.Qpiece

module Make (B : Backend.S) = struct
  module E = Engine.Make (B)
  module S = Snapshot.Make (B)

  type t = {
    mutable gdist : Gdist.t;
    tts : Fof.time_term array;
    istart : Q.t;  (** sweep start (anchors constant curves) *)
    mutable lifetimes : (Q.t * Q.t option) Oid.Map.t;
    mutable curves : B.PW.t option array Oid.Map.t; (* per object, per tt index *)
  }

  let tt_index p (tt : Fof.time_term) =
    let n = Array.length p.tts in
    let rec find i =
      if i >= n then invalid_arg "Problem: unknown time term"
      else begin
        let t = p.tts.(i) in
        if Q.equal t.Fof.scale tt.Fof.scale && Q.equal t.Fof.offset tt.Fof.offset then i
        else find (i + 1)
      end
    in
    find 0

  (* The curve of f(o, θ(t)), exact; [None] when the composed domain is
     empty (e.g. a constant time term outside the object's lifetime). *)
  let qcurve gdist (tr : T.t) (tt : Fof.time_term) ~(istart : Q.t) : Qpiece.t option =
    let base = Gdist.curve gdist tr in
    if Q.sign tt.Fof.scale > 0 then
      Some (Qpiece.compose_affine base ~scale:tt.Fof.scale ~offset:tt.Fof.offset)
    else if Qpiece.defined_at base tt.Fof.offset then
      Some (Qpiece.constant ~start:istart (Qpiece.eval base tt.Fof.offset))
    else None

  let curves_of p tr =
    Array.map
      (fun tt -> Option.map B.curve_of_qpiece (qcurve p.gdist tr tt ~istart:p.istart))
      p.tts

  (* The time terms a query sweeps; queries with no Dist terms still sweep
     time. *)
  let time_terms (query : Fof.query) =
    if not (Fof.free_ok query) then invalid_arg "Problem: ill-formed query";
    match Fof.time_terms query with
    | [] -> [| Fof.t_var |]
    | l -> Array.of_list l

  let same_time_terms a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun (x : Fof.time_term) (y : Fof.time_term) ->
           Q.equal x.Fof.scale y.Fof.scale && Q.equal x.Fof.offset y.Fof.offset)
         a b

  let create ~(db : DB.t) ~(gdist : Gdist.t) ~(tts : Fof.time_term array) ~(istart : Q.t) : t =
    let p =
      { gdist;
        tts;
        istart;
        lifetimes = Oid.Map.empty;
        curves = Oid.Map.empty;
      }
    in
    List.iter
      (fun (o, tr) ->
        p.lifetimes <- Oid.Map.add o (T.birth tr, T.death tr) p.lifetimes;
        p.curves <- Oid.Map.add o (curves_of p tr) p.curves)
      (DB.objects db);
    p

  let constant_curve ~(start : Q.t) (c : Q.t) =
    B.PW.constant ~start:(B.scalar_of_rat start) (B.scalar_of_rat c)

  (* The object curves plus constant curves for [consts] starting at
     [start] (default: the sweep start). *)
  let entry_list ?start p ~(consts : Q.t list) : (E.label * B.PW.t) list =
    let start = Option.value start ~default:p.istart in
    let obj_entries =
      Oid.Map.fold
        (fun o arr acc ->
          let acc = ref acc in
          Array.iteri
            (fun k c -> match c with Some c -> acc := (E.Obj (o, k), c) :: !acc | None -> ())
            arr;
          !acc)
        p.curves []
    in
    let const_entries =
      List.map (fun c -> (E.Cst c, constant_curve ~start c)) consts
    in
    obj_entries @ const_entries

  let snapshot_ctx p : S.ctx =
    { S.oids = List.map fst (Oid.Map.bindings p.lifetimes);
      alive =
        (fun i o ->
          match Oid.Map.find_opt o p.lifetimes with
          | None -> false
          | Some (b, d) ->
            B.compare_instant_scalar i (B.scalar_of_rat b) >= 0
            && (match d with
                | None -> true
                | Some d -> B.compare_instant_scalar i (B.scalar_of_rat d) <= 0));
      curve =
        (fun o k ->
          match Oid.Map.find_opt o p.curves with
          | Some arr when k < Array.length arr -> arr.(k)
          | _ -> None);
      tt_index = tt_index p;
    }

  (* Mutations used by the monitor. *)

  let update_object p o tr =
    p.lifetimes <- Oid.Map.add o (T.birth tr, T.death tr) p.lifetimes;
    let arr = curves_of p tr in
    p.curves <- Oid.Map.add o arr p.curves;
    arr

  let set_gdist p gdist db =
    p.gdist <- gdist;
    List.iter (fun (o, tr) -> p.curves <- Oid.Map.add o (curves_of p tr) p.curves)
      (DB.objects db)
end

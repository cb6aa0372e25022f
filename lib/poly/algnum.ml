module Q = Moq_numeric.Rat
module P = Qpoly

(* A [Root] value holds a squarefree polynomial [p], nonzero at [lo] and
   [hi], with exactly one real root in the open interval (lo, hi).  The
   interval is mutable: comparisons refine it in place (the interface is
   pure — the represented number never changes). *)
type t =
  | Rational of Q.t
  | Root of root

and root = { p : P.t; mutable lo : Q.t; mutable hi : Q.t }

let of_rat q = Rational q
let of_int n = Rational (Q.of_int n)

let half = Q.of_ints 1 2
let midpoint a b = Q.mul half (Q.add a b)

(* One bisection step.  Always narrows the interval (at least halves its
   width).  Returns [Some m] when the root is discovered to be exactly the
   rational [m]; the interval invariant still holds afterwards. *)
let step r : Q.t option =
  let m = midpoint r.lo r.hi in
  match P.sign_at r.p m with
  | 0 ->
    r.lo <- midpoint r.lo m;
    r.hi <- midpoint m r.hi;
    Some m
  | sm ->
    if sm * P.sign_at r.p r.lo < 0 then r.hi <- m else r.lo <- m;
    None

(* The root of a degree-1 polynomial is rational: it stays exact, so it
   prints and converts the same whichever backend produced it. *)
let linear_root p = Q.neg (Q.div (P.coeff p 0) (P.coeff p 1))

let roots p =
  if P.degree p <= 0 then []
  else begin
    let sf = P.squarefree p in
    if P.degree sf = 1 then [ Rational (linear_root sf) ]
    else
      List.map
        (function
          | Sturm.Point q -> Rational q
          | Sturm.Open_interval (lo, hi) -> Root { p = sf; lo; hi })
        (Sturm.isolate p)
  end

module Z = Moq_numeric.Bigint

(* The square root of [n >= 0] when [n] is a perfect square (Newton). *)
let exact_isqrt n =
  if Z.sign n < 0 then None
  else if Z.is_zero n then Some n
  else begin
    let rec go x =
      let y = Z.shift_right (Z.add x (Z.div n x)) 1 in
      if Z.compare y x >= 0 then x else go y
    in
    let r = go (Z.shift_left Z.one ((Z.num_bits n + 1) / 2)) in
    if Z.equal (Z.mul r r) n then Some r else None
  end

(* The value of a quadratic's root when it is rational (the discriminant is
   a rational square).  The sweep's curves are at most quadratic, so a
   crossing at a rational instant found from a quadratic difference is
   recognised here: it prints and converts like the rational itself. *)
let rational_value (r : root) =
  if P.degree r.p <> 2 then None
  else begin
    let a = P.coeff r.p 2 and b = P.coeff r.p 1 and c = P.coeff r.p 0 in
    let disc = Q.sub (Q.mul b b) (Q.mul (Q.of_int 4) (Q.mul a c)) in
    match exact_isqrt (Q.num disc), exact_isqrt (Q.den disc) with
    | Some sn, Some sd ->
      let sq = Q.div (Q.of_bigint sn) (Q.of_bigint sd) and two_a = Q.mul (Q.of_int 2) a in
      List.find_opt
        (fun x -> Q.compare r.lo x < 0 && Q.compare x r.hi < 0)
        [ Q.div (Q.sub (Q.neg b) sq) two_a; Q.div (Q.add (Q.neg b) sq) two_a ]
    | _ -> None
  end

let sign = function
  | Rational q -> Q.sign q
  | Root r ->
    let rec go () =
      if Q.sign r.lo >= 0 then 1
      else if Q.sign r.hi <= 0 then -1
      else if P.sign_at r.p Q.zero = 0 then 0 (* 0 in (lo,hi) and a root: it is the root *)
      else begin
        match step r with
        | Some m -> Q.sign m
        | None -> go ()
      end
    in
    go ()

(* Compare a rational against a [root]. *)
let compare_rat_root q (r : root) =
  if Q.compare q r.lo <= 0 then -1
  else if Q.compare q r.hi >= 0 then 1
  else if P.sign_at r.p q = 0 then 0
  else if P.sign_at r.p q * P.sign_at r.p r.lo < 0 then 1 (* root in (lo, q): q greater *)
  else -1

(* Does [g] (nonzero) have a root in the open interval (lo, hi)?  Assumes
   nothing about the endpoints. *)
let has_root_in_open g lo hi =
  if P.degree g <= 0 then false
  else if Q.compare lo hi >= 0 then false
  else begin
    let sf = P.squarefree g in
    let c = Sturm.chain sf in
    let n = Sturm.count_roots_between c lo hi in
    let n = if P.sign_at sf hi = 0 then n - 1 else n in
    n > 0
  end

let compare_root_root (a : root) (b : root) =
  if a == b then 0
  else begin
    let g = P.gcd a.p b.p in
    let overlap_lo = Q.max a.lo b.lo and overlap_hi = Q.min a.hi b.hi in
    (* A root of g inside both isolating intervals is a root of a.p in a's
       interval (hence = alpha) and of b.p in b's (hence = beta). *)
    if has_root_in_open g overlap_lo overlap_hi then 0
    else begin
      let rec separate () =
        if Q.compare a.hi b.lo <= 0 then -1
        else if Q.compare b.hi a.lo <= 0 then 1
        else begin
          let wa = Q.sub a.hi a.lo and wb = Q.sub b.hi b.lo in
          let target, other = if Q.compare wa wb >= 0 then (a, b) else (b, a) in
          match step target with
          | Some m ->
            let c = compare_rat_root m other in
            if target == a then c else - c
          | None -> separate ()
        end
      in
      separate ()
    end
  end

let compare x y =
  match x, y with
  | Rational a, Rational b -> Q.compare a b
  | Rational a, Root b -> compare_rat_root a b
  | Root a, Rational b -> - (compare_rat_root b a)
  | Root a, Root b -> compare_root_root a b

let equal x y = compare x y = 0

let sign_of_poly_at q x =
  match x with
  | Rational v -> P.sign_at q v
  | Root r ->
    if P.is_zero q then 0
    else if has_root_in_open (P.gcd q r.p) r.lo r.hi then 0
    else begin
      (* alpha is not a root of q: refine until q is root-free on the
         interval, where its sign is constant. *)
      let sf = P.squarefree q in
      let c = Sturm.chain sf in
      let rec go () =
        let n = Sturm.count_roots_between c r.lo r.hi in
        let inside = if P.sign_at sf r.hi = 0 then n - 1 else n in
        if inside = 0 && P.sign_at q r.lo <> 0 then begin
          let s = P.sign_at q (midpoint r.lo r.hi) in
          assert (s <> 0);
          s
        end
        else begin
          match step r with
          | Some m -> P.sign_at q m
          | None -> go ()
        end
      in
      go ()
    end

let to_rat = function
  | Rational q -> Some q
  | Root _ -> None

let rec refine_until_width (x : t) (w : Q.t) : t =
  match x with
  | Rational _ -> x
  | Root r ->
    if Q.compare (Q.sub r.hi r.lo) w < 0 then x
    else begin
      match step r with
      | Some m -> Rational m
      | None -> refine_until_width x w
    end

(* A root converts through the cell of the fixed grid of step 2^-50 that
   holds it: the cell depends on the number alone, not on the isolating
   interval its history of comparisons left behind, so equal numbers give
   equal floats. *)
let grid_scale = Q.of_bigint (Z.shift_left Z.one 50)
let grid_step = Q.inv grid_scale

let to_float x =
  match x with
  | Rational q -> Q.to_float q
  | Root r ->
    (match rational_value r with
     | Some q -> Q.to_float q
     | None ->
       (match refine_until_width x grid_step with
        | Rational q -> Q.to_float q
        | Root r ->
          (* the interval is narrower than one step, so the least grid
             point at or above [lo] is the upper end of the root's cell or
             its lower end *)
          let g = Q.div (Q.of_bigint (Q.ceil (Q.mul r.lo grid_scale))) grid_scale in
          (match compare_rat_root g r with
           | 0 -> Q.to_float g
           | c ->
             let cell = if c < 0 then g else Q.sub g grid_step in
             Q.to_float (Q.add cell (Q.mul half grid_step)))))

let rational_between x y =
  let c = compare x y in
  if c = 0 then invalid_arg "Algnum.rational_between: equal arguments"
  else begin
    let x, y = if c < 0 then (x, y) else (y, x) in
    let rec go () =
      match x, y with
      | Rational a, Rational b -> midpoint a b
      | Rational a, Root r -> if Q.compare a r.lo < 0 then midpoint a r.lo else (ignore (step r); go ())
      | Root r, Rational b -> if Q.compare r.hi b < 0 then midpoint r.hi b else (ignore (step r); go ())
      | Root r1, Root r2 ->
        if Q.compare r1.hi r2.lo <= 0 then midpoint r1.hi r2.lo
        else begin
          ignore (step r1);
          ignore (step r2);
          go ()
        end
    in
    go ()
  end

let rational_below = function
  | Rational q -> Q.sub q Q.one
  | Root r -> r.lo

let rational_above = function
  | Rational q -> Q.add q Q.one
  | Root r -> r.hi

let first_root_after p x =
  let rec find = function
    | [] -> None
    | r :: rest -> if compare r x > 0 then Some r else find rest
  in
  find (roots p)

let first_root_at_or_after p x =
  let rec find = function
    | [] -> None
    | r :: rest -> if compare r x >= 0 then Some r else find rest
  in
  find (roots p)

let bounds = function
  | Rational q -> (q, q)
  | Root r -> (r.lo, r.hi)

let refine_step = function
  | Rational _ -> ()
  | Root r -> ignore (step r)

(* Entry point for the filtered backend: it proves (with exact endpoint
   signs, see the check below) that an interval isolates a root it found by
   float means, then builds the [Root] without a full Sturm isolation. *)
let root_of_isolating_exn p ~lo ~hi =
  if Q.compare lo hi >= 0 then invalid_arg "Algnum.root_of_isolating_exn: empty interval";
  let sf = P.squarefree p in
  let slo = P.sign_at sf lo and shi = P.sign_at sf hi in
  if slo = 0 || shi = 0 || slo * shi > 0 then
    invalid_arg "Algnum.root_of_isolating_exn: no sign change"
  else if P.degree sf = 1 then Rational (linear_root sf)
  else Root { p = sf; lo; hi }

(* The live isolating interval is comparison-history-dependent, but the
   printed form is a wire token peers byte-compare (resumed subscription
   streams, replica audits).  Re-isolate from the polynomial and refine
   to a fixed width, so equal numbers print equal bytes no matter how
   much in-place refinement either copy has seen. *)
let canonical_width = Q.of_ints 1 1_099_511_627_776 (* 2^-40 *)

let pp fmt x =
  match x with
  | Rational q -> Q.pp fmt q
  | Root r ->
    (match rational_value r with
     | Some q -> Q.pp fmt q
     | None ->
       let fresh =
         match List.find_opt (fun c -> compare c x = 0) (roots r.p) with
         | Some c -> c
         | None -> Root { r with lo = r.lo } (* defensive: print our own copy *)
       in
       (match refine_until_width fresh canonical_width with
        | Rational q -> Q.pp fmt q
        | Root c ->
          Format.fprintf fmt "root(%a) in (%a,%a) ~ %.6g" P.pp c.p Q.pp c.lo
            Q.pp c.hi
            (Q.to_float (midpoint c.lo c.hi))))

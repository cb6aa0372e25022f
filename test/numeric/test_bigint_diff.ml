(* Differential tests for the Small/Big bignum against the pre-change
   schoolbook implementation.

   [Ref] below is the original always-limb-array bignum, kept verbatim as
   the reference semantics; every public operation of the new
   [Moq_numeric.Bigint] is cross-checked against it on values engineered
   around the Small/Big boundary: ±2^62, [min_int]/[max_int], carry
   chains, and random multi-limb compositions. *)

module B = Moq_numeric.Bigint

(* ------------------------------------------------------------------ *)
(* Reference: the pre-change schoolbook bignum                          *)
(* ------------------------------------------------------------------ *)

module Ref = struct
  let base_bits = 30
  let base = 1 lsl base_bits
  let limb_mask = base - 1

  type t = { sign : int; mag : int array }

  let zero = { sign = 0; mag = [||] }

  let normalize sign mag =
    let n = Array.length mag in
    let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
    let hi = top (n - 1) in
    if hi < 0 then zero
    else if hi = n - 1 then { sign; mag }
    else { sign; mag = Array.sub mag 0 (hi + 1) }

  let is_zero x = x.sign = 0

  let of_int n =
    if n = 0 then zero
    else begin
      let s = if n < 0 then -1 else 1 in
      if n = min_int then begin
        let l0 = n land limb_mask in
        let l1 = (n lsr base_bits) land limb_mask in
        let l2 = (n lsr (2 * base_bits)) land limb_mask in
        normalize (-1) [| l0; l1; l2 |]
      end
      else begin
        let a = abs n in
        let rec count v k = if v = 0 then k else count (v lsr base_bits) (k + 1) in
        let k = count a 0 in
        let mag = Array.make k 0 in
        let v = ref a in
        for i = 0 to k - 1 do
          mag.(i) <- !v land limb_mask;
          v := !v lsr base_bits
        done;
        { sign = s; mag }
      end
    end

  let to_int x =
    let n = Array.length x.mag in
    if n = 0 then Some 0
    else if n > 3 then None
    else begin
      let v = ref 0 in
      let ok = ref true in
      for i = n - 1 downto 0 do
        if !v > (max_int - x.mag.(i)) / base then ok := false
        else v := (!v lsl base_bits) lor x.mag.(i)
      done;
      if !ok then Some (if x.sign < 0 then - !v else !v)
      else if x.sign < 0 && n = 3 && x.mag.(2) = 4 && x.mag.(1) = 0 && x.mag.(0) = 0
      then Some min_int
      else None
    end

  let to_int_exn x =
    match to_int x with Some n -> n | None -> invalid_arg "Ref.to_int_exn"

  let cmp_mag a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then compare la lb
    else begin
      let rec go i =
        if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1)
      in
      go (la - 1)
    end

  let compare x y =
    if x.sign <> y.sign then compare x.sign y.sign
    else if x.sign >= 0 then cmp_mag x.mag y.mag
    else cmp_mag y.mag x.mag

  let add_mag a b =
    let la = Array.length a and lb = Array.length b in
    let l = Stdlib.max la lb in
    let r = Array.make (l + 1) 0 in
    let carry = ref 0 in
    for i = 0 to l - 1 do
      let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
      r.(i) <- s land limb_mask;
      carry := s lsr base_bits
    done;
    r.(l) <- !carry;
    r

  let sub_mag a b =
    let la = Array.length a and lb = Array.length b in
    let r = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
      if d < 0 then begin r.(i) <- d + base; borrow := 1 end
      else begin r.(i) <- d; borrow := 0 end
    done;
    assert (!borrow = 0);
    r

  let add x y =
    if x.sign = 0 then y
    else if y.sign = 0 then x
    else if x.sign = y.sign then normalize x.sign (add_mag x.mag y.mag)
    else begin
      let c = cmp_mag x.mag y.mag in
      if c = 0 then zero
      else if c > 0 then normalize x.sign (sub_mag x.mag y.mag)
      else normalize y.sign (sub_mag y.mag x.mag)
    end

  let neg x = if x.sign = 0 then x else { x with sign = - x.sign }
  let abs x = if x.sign < 0 then neg x else x
  let sub x y = add x (neg y)

  let mul_mag a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then [||]
    else begin
      let r = Array.make (la + lb) 0 in
      for i = 0 to la - 1 do
        let carry = ref 0 in
        let ai = a.(i) in
        if ai <> 0 then begin
          for j = 0 to lb - 1 do
            let s = r.(i + j) + (ai * b.(j)) + !carry in
            r.(i + j) <- s land limb_mask;
            carry := s lsr base_bits
          done;
          let k = ref (i + lb) in
          while !carry <> 0 do
            let s = r.(!k) + !carry in
            r.(!k) <- s land limb_mask;
            carry := s lsr base_bits;
            incr k
          done
        end
      done;
      r
    end

  let mul x y =
    if x.sign = 0 || y.sign = 0 then zero
    else normalize (x.sign * y.sign) (mul_mag x.mag y.mag)

  let shl_mag a k =
    if Array.length a = 0 then [||]
    else begin
      let limbs = k / base_bits and bits = k mod base_bits in
      let la = Array.length a in
      let r = Array.make (la + limbs + 1) 0 in
      for i = 0 to la - 1 do
        let v = a.(i) lsl bits in
        r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
        r.(i + limbs + 1) <- v lsr base_bits
      done;
      r
    end

  let shr_mag a k =
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    if limbs >= la then [||]
    else begin
      let l = la - limbs in
      let r = Array.make l 0 in
      for i = 0 to l - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (base_bits - bits)) land limb_mask
          else 0
        in
        r.(i) <- if bits = 0 then a.(i + limbs) else lo lor hi
      done;
      r
    end

  let shift_left x k =
    if k < 0 then invalid_arg "Ref.shift_left"
    else if x.sign = 0 || k = 0 then x
    else normalize x.sign (shl_mag x.mag k)

  let shift_right x k =
    if k < 0 then invalid_arg "Ref.shift_right"
    else if x.sign = 0 || k = 0 then x
    else normalize x.sign (shr_mag x.mag k)

  let bits_of_limb v =
    let rec go v k = if v = 0 then k else go (v lsr 1) (k + 1) in
    go v 0

  let divmod_mag_limb a d =
    let la = Array.length a in
    let q = Array.make la 0 in
    let r = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!r lsl base_bits) lor a.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (q, !r)

  let divmod_mag a b =
    let lb = Array.length b in
    let shift = base_bits - bits_of_limb b.(lb - 1) in
    let u = shl_mag a shift in
    let v = shl_mag b shift in
    let v =
      let n = Array.length v in
      let rec top i = if i >= 0 && v.(i) = 0 then top (i - 1) else i in
      Array.sub v 0 (top (n - 1) + 1)
    in
    let n = Array.length v in
    let m =
      let lu = Array.length u in
      let rec top i = if i >= 0 && u.(i) = 0 then top (i - 1) else i in
      top (lu - 1) + 1
    in
    if m < n then ([||], shr_mag a 0)
    else begin
      let u =
        if m + 1 <= Array.length u then Array.sub u 0 (m + 1)
        else begin
          let u' = Array.make (m + 1) 0 in
          Array.blit u 0 u' 0 (Array.length u);
          u'
        end
      in
      let q = Array.make (m - n + 1) 0 in
      let vn1 = v.(n - 1) in
      let vn2 = if n >= 2 then v.(n - 2) else 0 in
      for j = m - n downto 0 do
        let ujn = u.(j + n) and ujn1 = u.(j + n - 1) in
        let num = (ujn lsl base_bits) lor ujn1 in
        let qhat = ref (num / vn1) and rhat = ref (num mod vn1) in
        let ujn2 = u.(j + n - 2) in
        let continue_test = ref true in
        while !continue_test do
          if !qhat >= base || !qhat * vn2 > (!rhat lsl base_bits) lor ujn2 then begin
            decr qhat;
            rhat := !rhat + vn1;
            if !rhat >= base then continue_test := false
          end
          else continue_test := false
        done;
        let borrow = ref 0 and carry = ref 0 in
        for i = 0 to n - 1 do
          let p = !qhat * v.(i) + !carry in
          carry := p lsr base_bits;
          let d = u.(i + j) - (p land limb_mask) - !borrow in
          if d < 0 then begin u.(i + j) <- d + base; borrow := 1 end
          else begin u.(i + j) <- d; borrow := 0 end
        done;
        let d = u.(j + n) - !carry - !borrow in
        if d < 0 then begin
          u.(j + n) <- d + base;
          decr qhat;
          let carry2 = ref 0 in
          for i = 0 to n - 1 do
            let s = u.(i + j) + v.(i) + !carry2 in
            u.(i + j) <- s land limb_mask;
            carry2 := s lsr base_bits
          done;
          u.(j + n) <- (u.(j + n) + !carry2) land limb_mask
        end
        else u.(j + n) <- d;
        q.(j) <- !qhat
      done;
      let r = shr_mag (Array.sub u 0 n) shift in
      (q, r)
    end

  let divmod a b =
    if b.sign = 0 then raise Division_by_zero
    else if a.sign = 0 then (zero, zero)
    else begin
      let c = cmp_mag a.mag b.mag in
      if c < 0 then (zero, a)
      else if Array.length b.mag = 1 then begin
        let q, r = divmod_mag_limb a.mag b.mag.(0) in
        (normalize (a.sign * b.sign) q, if r = 0 then zero else { sign = a.sign; mag = [| r |] })
      end
      else begin
        let q, r = divmod_mag a.mag b.mag in
        (normalize (a.sign * b.sign) q, normalize a.sign r)
      end
    end

  let rem a b = snd (divmod a b)

  let rec gcd_aux a b = if is_zero b then a else gcd_aux b (rem a b)
  let gcd a b = gcd_aux (abs a) (abs b)

  let billion = of_int 1_000_000_000

  let to_string x =
    if x.sign = 0 then "0"
    else begin
      let buf = Buffer.create 32 in
      let rec chunks v acc =
        if is_zero v then acc
        else begin
          let q, r = divmod v billion in
          chunks q (to_int_exn r :: acc)
        end
      in
      if x.sign < 0 then Buffer.add_char buf '-';
      (match chunks (abs x) [] with
       | [] -> Buffer.add_char buf '0'
       | first :: rest ->
         Buffer.add_string buf (string_of_int first);
         List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
      Buffer.contents buf
    end

  let num_bits x =
    let n = Array.length x.mag in
    if n = 0 then 0 else ((n - 1) * base_bits) + bits_of_limb x.mag.(n - 1)
end

(* ------------------------------------------------------------------ *)
(* Differential harness                                                 *)
(* ------------------------------------------------------------------ *)

(* The same value in both implementations, built with the same op
   sequence: x * 2^k + y. *)
let pair_of (x, k, y) =
  ( B.add (B.shift_left (B.of_int x) k) (B.of_int y),
    Ref.add (Ref.shift_left (Ref.of_int x) k) (Ref.of_int y) )

let check_same ctx (b : B.t) (r : Ref.t) =
  let sb = B.to_string b and sr = Ref.to_string r in
  if sb <> sr then Alcotest.failf "%s: new %s, reference %s" ctx sb sr

(* Edge ints around the Small/Big and small-multiply boundaries. *)
let edge_ints =
  [ 0; 1; -1; 2; -7; 1000; (1 lsl 30) - 1; 1 lsl 30; -(1 lsl 30);
    (1 lsl 31) - 1; 1 lsl 31; -(1 lsl 31); (1 lsl 31) + 1;
    (1 lsl 60) - 1; 1 lsl 60; max_int; min_int; max_int - 1; min_int + 1 ]

let edge_triples =
  (* (x, k, y): spans Small, exactly-2^62, and multi-limb values *)
  List.concat_map
    (fun x -> [ (x, 0, 0); (x, 1, 0); (x, 1, 1); (x, 31, 17); (x, 62, -3); (x, 70, 123) ])
    edge_ints

let test_edges () =
  List.iter
    (fun ta ->
      List.iter
        (fun tb ->
          let a, ra = pair_of ta and b, rb = pair_of tb in
          let ctx op = Printf.sprintf "%s %s %s" (B.to_string a) op (B.to_string b) in
          check_same "construct a" a ra;
          check_same (ctx "+") (B.add a b) (Ref.add ra rb);
          check_same (ctx "-") (B.sub a b) (Ref.sub ra rb);
          check_same (ctx "*") (B.mul a b) (Ref.mul ra rb);
          check_same (ctx "gcd") (B.gcd a b) (Ref.gcd ra rb);
          Alcotest.(check int) (ctx "cmp") (Ref.compare ra rb) (B.compare a b);
          Alcotest.(check int) (ctx "bits") (Ref.num_bits ra) (B.num_bits a);
          if not (B.is_zero b) then begin
            let q, r = B.divmod a b in
            let q', r' = Ref.divmod ra rb in
            check_same (ctx "/") q q';
            check_same (ctx "mod") r r'
          end)
        edge_triples)
    (List.filteri (fun i _ -> i mod 3 = 0) edge_triples)
(* subsample the left side to keep the quadratic loop quick *)

(* Carry chains: (2^k - 1) + 1, (2^k) - 1, and additions that ripple
   through every limb. *)
let test_carry_chains () =
  for k = 58 to 70 do
    let b1 = B.sub (B.shift_left B.one k) B.one in
    let r1 = Ref.sub (Ref.shift_left (Ref.of_int 1) k) (Ref.of_int 1) in
    check_same "2^k - 1" b1 r1;
    check_same "ripple add" (B.add b1 B.one) (Ref.add r1 (Ref.of_int 1));
    check_same "ripple sub" (B.sub (B.neg b1) B.one)
      (Ref.sub (Ref.neg r1) (Ref.of_int 1));
    check_same "square" (B.mul b1 b1) (Ref.mul r1 r1)
  done

let arb_triple =
  QCheck.triple (QCheck.int_range (-max_int) max_int) (QCheck.int_range 0 70)
    (QCheck.int_range (-max_int) max_int)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name arb f)

let diff_props =
  [ prop "add" (QCheck.pair arb_triple arb_triple) (fun (ta, tb) ->
        let a, ra = pair_of ta and b, rb = pair_of tb in
        B.to_string (B.add a b) = Ref.to_string (Ref.add ra rb));
    prop "sub" (QCheck.pair arb_triple arb_triple) (fun (ta, tb) ->
        let a, ra = pair_of ta and b, rb = pair_of tb in
        B.to_string (B.sub a b) = Ref.to_string (Ref.sub ra rb));
    prop "mul" (QCheck.pair arb_triple arb_triple) (fun (ta, tb) ->
        let a, ra = pair_of ta and b, rb = pair_of tb in
        B.to_string (B.mul a b) = Ref.to_string (Ref.mul ra rb));
    prop "divmod" (QCheck.pair arb_triple arb_triple) (fun (ta, tb) ->
        let a, ra = pair_of ta and b, rb = pair_of tb in
        QCheck.assume (not (B.is_zero b));
        let q, r = B.divmod a b in
        let q', r' = Ref.divmod ra rb in
        B.to_string q = Ref.to_string q' && B.to_string r = Ref.to_string r');
    prop "gcd" (QCheck.pair arb_triple arb_triple) (fun (ta, tb) ->
        let a, ra = pair_of ta and b, rb = pair_of tb in
        B.to_string (B.gcd a b) = Ref.to_string (Ref.gcd ra rb));
    prop "compare" (QCheck.pair arb_triple arb_triple) (fun (ta, tb) ->
        let a, ra = pair_of ta and b, rb = pair_of tb in
        B.compare a b = Ref.compare ra rb);
    prop "shift_right" (QCheck.pair arb_triple (QCheck.int_range 0 80)) (fun (ta, k) ->
        let a, ra = pair_of ta in
        B.to_string (B.shift_right a k) = Ref.to_string (Ref.shift_right ra k));
    prop "num_bits" arb_triple (fun ta ->
        let a, ra = pair_of ta in
        B.num_bits a = Ref.num_bits ra);
  ]

(* The rewritten to_float must be exact on representable values and
   correctly rounded at the 2^60-scale rounding boundaries. *)
let test_to_float_exact () =
  let two60 = B.shift_left B.one 60 in
  Alcotest.(check (float 0.0)) "2^60" (Float.ldexp 1.0 60) (B.to_float two60);
  (* ulp(2^60) = 256: +128 ties to even (down), +129 rounds up *)
  Alcotest.(check (float 0.0)) "tie to even"
    (Float.ldexp 1.0 60)
    (B.to_float (B.add two60 (B.of_int 128)));
  Alcotest.(check (float 0.0)) "tie + sticky rounds up"
    (Float.ldexp 1.0 60 +. 256.0)
    (B.to_float (B.add two60 (B.of_int 129)));
  Alcotest.(check (float 0.0)) "exact multiple"
    (Float.ldexp 1.0 60 +. 256.0)
    (B.to_float (B.add two60 (B.of_int 256)));
  Alcotest.(check (float 0.0)) "2^100" (Float.ldexp 1.0 100)
    (B.to_float (B.shift_left B.one 100));
  Alcotest.(check (float 0.0)) "negative"
    (-.Float.ldexp 1.0 100)
    (B.to_float (B.neg (B.shift_left B.one 100)))

(* gcd on operands of hundreds to thousands of bits, where [B.gcd] runs
   Lehmer rounds: shared factors, one operand a multiple of the other,
   equal operands, 2^k against 2^j - 1, and consecutive Fibonacci numbers
   (every Euclid quotient is 1, the longest Lehmer simulations). *)
let test_gcd_wide () =
  let st = Random.State.make [| 17 |] in
  let wide bits =
    let rec go k (b, r) =
      if k <= 0 then (b, r)
      else begin
        let c = Random.State.bits st in
        go (k - 30)
          (B.add (B.shift_left b 30) (B.of_int c), Ref.add (Ref.shift_left r 30) (Ref.of_int c))
      end
    in
    go bits (B.one, Ref.of_int 1)
  in
  let check ctx (a, ra) (b, rb) =
    check_same ctx (B.gcd a b) (Ref.gcd ra rb);
    check_same (ctx ^ " (neg)") (B.gcd (B.neg b) a) (Ref.gcd (Ref.neg rb) ra)
  in
  let mul2 (a, ra) (b, rb) = (B.mul a b, Ref.mul ra rb) in
  for i = 1 to 300 do
    let w () = wide (30 + Random.State.int st (if i mod 10 = 0 then 3000 else 600)) in
    let a = w () and b = w () and g = w () in
    check "random" a b;
    check "shared factor" (mul2 g a) (mul2 g b);
    check "multiple" (mul2 a b) b;
    check "equal" a a
  done;
  for k = 60 to 200 do
    let p2 = (B.shift_left B.one k, Ref.shift_left (Ref.of_int 1) k) in
    let j = k - 1 - (k mod 7) in
    let m = (B.sub (B.shift_left B.one j) B.one, Ref.sub (Ref.shift_left (Ref.of_int 1) j) (Ref.of_int 1)) in
    check "2^k, 2^j - 1" p2 m
  done;
  let rec fib n (a, ra) (b, rb) =
    if n > 0 then begin
      if n mod 97 = 0 then check "fibonacci" (b, rb) (a, ra);
      fib (n - 1) (b, rb) (B.add a b, Ref.add ra rb)
    end
  in
  fib 3000 (B.zero, Ref.zero) (B.one, Ref.of_int 1)

let () =
  Alcotest.run "bigint-differential"
    [ ( "vs-schoolbook",
        [ Alcotest.test_case "edge values" `Quick test_edges;
          Alcotest.test_case "carry chains" `Quick test_carry_chains;
          Alcotest.test_case "to_float rounding" `Quick test_to_float_exact;
          Alcotest.test_case "gcd of wide operands" `Quick test_gcd_wide;
        ] );
      ("vs-schoolbook-props", diff_props);
    ]

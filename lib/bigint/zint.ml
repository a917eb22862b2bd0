type t = { neg : bool; mag : Nat.t }
(* Invariant: [neg] is false when [mag] is zero. *)

let make neg mag = { neg = neg && not (Nat.is_zero mag); mag }
let zero = { neg = false; mag = Nat.zero }
let one = { neg = false; mag = Nat.one }
let minus_one = { neg = true; mag = Nat.one }

let of_int v =
  if v >= 0 then { neg = false; mag = Nat.of_int v }
  else { neg = true; mag = Nat.of_int (-v) }

let to_int v =
  let m = Nat.to_int v.mag in
  if v.neg then -m else m

let of_nat mag = { neg = false; mag }
let to_nat v = v.mag
let sign v = if v.neg then -1 else if Nat.is_zero v.mag then 0 else 1
let neg v = make (not v.neg) v.mag
let abs v = { v with neg = false }
let is_zero v = Nat.is_zero v.mag

let add a b =
  if a.neg = b.neg then make a.neg (Nat.add a.mag b.mag)
  else begin
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.neg (Nat.sub a.mag b.mag)
    else make b.neg (Nat.sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let mul a b = make (a.neg <> b.neg) (Nat.mul a.mag b.mag)

let mul_int a v =
  if v >= 0 then make a.neg (Nat.mul_int a.mag v)
  else make (not a.neg) (Nat.mul_int a.mag (-v))

let shift_left a k = make a.neg (Nat.shift_left a.mag k)

(* Euclidean: remainder always in [0, |b|). *)
let ediv_rem a b =
  let q, r = Nat.divmod a.mag b.mag in
  match (a.neg, Nat.is_zero r) with
  | false, _ -> (make b.neg q, of_nat r)
  | true, true -> (make (not b.neg) q, zero)
  | true, false ->
    (* a = -(q*|b| + r) = (-q-1)*|b| + (|b| - r). *)
    let q1 = Nat.add q Nat.one in
    (make (not b.neg) q1, of_nat (Nat.sub b.mag r))

let fdiv a b =
  let q, r = ediv_rem a b in
  if is_zero r || not b.neg then q else sub q one

let cdiv a b =
  let q, r = ediv_rem a b in
  if is_zero r || b.neg then q else add q one

(* Nearest integer, ties toward +infinity: floor((2a + b) / 2b) when b > 0. *)
let rounded_div a b =
  let b_pos = if sign b >= 0 then b else neg b in
  let a_adj = if sign b >= 0 then a else neg a in
  fdiv (add (shift_left a_adj 1) b_pos) (shift_left b_pos 1)

let equal a b = a.neg = b.neg && Nat.equal a.mag b.mag

let compare a b =
  match (a.neg, b.neg) with
  | false, false -> Nat.compare a.mag b.mag
  | true, true -> Nat.compare b.mag a.mag
  | true, false -> -1
  | false, true -> 1

let num_bits v = Nat.num_bits v.mag

let to_string v = if v.neg then "-" ^ Nat.to_string v.mag else Nat.to_string v.mag

let of_string s =
  if String.length s > 0 && s.[0] = '-' then
    make true (Nat.of_string (String.sub s 1 (String.length s - 1)))
  else of_nat (Nat.of_string s)

let to_float v =
  let m, e = Nat.to_float_exp v.mag in
  let f = ldexp m e in
  if v.neg then -.f else f

let pp fmt v = Format.pp_print_string fmt (to_string v)

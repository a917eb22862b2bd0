module Nat = Ctg_bigint.Nat

(* e^-y for 0 <= y < 1 by the alternating Taylor series, summed as two
   non-negative partial sums so everything stays in Nat. *)
let taylor_exp_neg (y : Fixed.t) : Fixed.t =
  let f = y.Fixed.frac_bits in
  let yv = y.Fixed.v in
  let pos = ref (Nat.shift_left Nat.one f) (* term 0 = 1 *) in
  let neg = ref Nat.zero in
  let term = ref (Nat.shift_left Nat.one f) in
  let i = ref 0 in
  while not (Nat.is_zero !term) do
    incr i;
    (* term <- term * y / i *)
    term := Nat.div (Nat.shift_right (Nat.mul !term yv) f) (Nat.of_int !i);
    if !i land 1 = 1 then neg := Nat.add !neg !term
    else pos := Nat.add !pos !term
  done;
  Fixed.create ~frac_bits:f (Nat.sub !pos !neg)

let exp_neg (x : Fixed.t) : Fixed.t =
  let f = x.Fixed.frac_bits in
  let one_v = Nat.shift_left Nat.one f in
  (* Halve until the argument is below 1. *)
  let rec reduce x k =
    if Nat.compare x.Fixed.v one_v < 0 then (x, k)
    else reduce (Fixed.shift_right x 1) (k + 1)
  in
  let y, k = reduce x 0 in
  let r = ref (taylor_exp_neg y) in
  for _ = 1 to k do
    r := Fixed.mul !r !r
  done;
  !r

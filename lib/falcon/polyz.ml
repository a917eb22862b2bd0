module Z = Ctg_bigint.Zint

type t = Z.t array

let of_int_array a = Array.map Z.of_int a
let to_int_array a = Array.map Z.to_int a
let zero n = Array.make n Z.zero
let add a b = Array.map2 Z.add a b
let sub a b = Array.map2 Z.sub a b
let neg a = Array.map Z.neg a
let mul_scalar a s = Array.map (fun c -> Z.mul c s) a
let is_zero a = Array.for_all Z.is_zero a
let equal a b = Array.for_all2 Z.equal a b

let max_bits a =
  Array.fold_left (fun acc c -> max acc (Z.num_bits c)) 0 a

(* Negacyclic schoolbook: x^n = -1. *)
let mul_big a b =
  let n = Array.length a in
  let out = Array.make n Z.zero in
  for i = 0 to n - 1 do
    if not (Z.is_zero a.(i)) then
      for j = 0 to n - 1 do
        if not (Z.is_zero b.(j)) then begin
          let p = Z.mul a.(i) b.(j) in
          let k = i + j in
          if k < n then out.(k) <- Z.add out.(k) p
          else out.(k - n) <- Z.sub out.(k - n) p
        end
      done
  done;
  out

(* The same product in native ints, when bits a + bits b + ⌈log2 n⌉ < 62:
   each of the n terms of a coefficient is below 2^(bits a + bits b), so
   every partial sum stays below 2^61 in magnitude. *)
let mul_native a b =
  let n = Array.length a in
  let a = Array.map Z.to_int a and b = Array.map Z.to_int b in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      for j = 0 to n - 1 - i do
        out.(i + j) <- out.(i + j) + (ai * b.(j))
      done;
      for j = n - i to n - 1 do
        out.(i + j - n) <- out.(i + j - n) - (ai * b.(j))
      done
    end
  done;
  Array.map Z.of_int out

let mul a b =
  let n = Array.length a in
  assert (Array.length b = n);
  let log_n = Ctg_util.Bits.bits_needed (max 0 (n - 1)) in
  if max_bits a + max_bits b + log_n < 62 then mul_native a b else mul_big a b

let adjoint a =
  let n = Array.length a in
  Array.init n (fun i -> if i = 0 then a.(0) else Z.neg a.(n - i))

let galois a =
  Array.mapi (fun i c -> if i land 1 = 1 then Z.neg c else c) a

let field_norm f =
  let n = Array.length f in
  assert (n land 1 = 0);
  let half = n / 2 in
  let fe = Array.init half (fun i -> f.(2 * i)) in
  let fo = Array.init half (fun i -> f.((2 * i) + 1)) in
  let fe2 = mul fe fe and fo2 = mul fo fo in
  (* x·f_o² in Z[x]/(x^half + 1): shift with wraparound sign flip. *)
  let xfo2 =
    Array.init half (fun i ->
        if i = 0 then Z.neg fo2.(half - 1) else fo2.(i - 1))
  in
  sub fe2 xfo2

let lift f =
  let n = Array.length f in
  Array.init (2 * n) (fun i -> if i land 1 = 0 then f.(i / 2) else Z.zero)

let reduce_mod_q a ~q =
  let qz = Z.of_int q in
  Array.map (fun c -> Z.to_int (snd (Z.ediv_rem c qz))) a

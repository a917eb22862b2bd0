(* Keccak-f[1600] over a 200-byte state of 25 little-endian 64-bit lanes,
   FIPS 202 parameters. *)

let round_constants =
  [|
    0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
    0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
    0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
    0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
    0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
    0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
    0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
    0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L;
  |]

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Lane [i] of the state, stored little-endian as FIPS 202 orders the
   sponge's bytes, so absorb and squeeze work on the state bytes as they
   are.  The primitives take and give the int64 unboxed. *)
let[@inline] load st i =
  if Sys.big_endian then swap64 (get64u st (8 * i)) else get64u st (8 * i)

let[@inline] store st i w =
  if Sys.big_endian then set64u st (8 * i) (swap64 w) else set64u st (8 * i) w

let[@inline] rotl64 x n =
  Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let[@inline] xor5 a b c d e =
  Int64.logxor (Int64.logxor (Int64.logxor a b) (Int64.logxor c d)) e

let[@inline] chi a b c = Int64.logxor a (Int64.logand (Int64.lognot b) c)

(* The permutation on 25 local [Int64] refs, which ocamlopt keeps unboxed
   in registers or stack slots because none escapes: no allocation, and
   every round runs the same operations on the same lanes whatever the
   data.  Lane (x, y) is [a(x + 5y)]; theta's column parities [d] are
   applied as rho and pi read each lane, with rho's offsets as constants.
   The helpers above are top-level so that they inline. *)
let keccak_f st =
  let a0 = ref (load st 0) and a1 = ref (load st 1) in
  let a2 = ref (load st 2) and a3 = ref (load st 3) in
  let a4 = ref (load st 4) and a5 = ref (load st 5) in
  let a6 = ref (load st 6) and a7 = ref (load st 7) in
  let a8 = ref (load st 8) and a9 = ref (load st 9) in
  let a10 = ref (load st 10) and a11 = ref (load st 11) in
  let a12 = ref (load st 12) and a13 = ref (load st 13) in
  let a14 = ref (load st 14) and a15 = ref (load st 15) in
  let a16 = ref (load st 16) and a17 = ref (load st 17) in
  let a18 = ref (load st 18) and a19 = ref (load st 19) in
  let a20 = ref (load st 20) and a21 = ref (load st 21) in
  let a22 = ref (load st 22) and a23 = ref (load st 23) in
  let a24 = ref (load st 24) in
  for round = 0 to 23 do
    (* theta *)
    let c0 = xor5 !a0 !a5 !a10 !a15 !a20 in
    let c1 = xor5 !a1 !a6 !a11 !a16 !a21 in
    let c2 = xor5 !a2 !a7 !a12 !a17 !a22 in
    let c3 = xor5 !a3 !a8 !a13 !a18 !a23 in
    let c4 = xor5 !a4 !a9 !a14 !a19 !a24 in
    let d0 = Int64.logxor c4 (rotl64 c1 1) in
    let d1 = Int64.logxor c0 (rotl64 c2 1) in
    let d2 = Int64.logxor c1 (rotl64 c3 1) in
    let d3 = Int64.logxor c2 (rotl64 c4 1) in
    let d4 = Int64.logxor c3 (rotl64 c0 1) in
    (* rho and pi: lane (x, y) moves to (y, 2x + 3y) *)
    let b0 = Int64.logxor !a0 d0 in
    let b1 = rotl64 (Int64.logxor !a6 d1) 44 in
    let b2 = rotl64 (Int64.logxor !a12 d2) 43 in
    let b3 = rotl64 (Int64.logxor !a18 d3) 21 in
    let b4 = rotl64 (Int64.logxor !a24 d4) 14 in
    let b5 = rotl64 (Int64.logxor !a3 d3) 28 in
    let b6 = rotl64 (Int64.logxor !a9 d4) 20 in
    let b7 = rotl64 (Int64.logxor !a10 d0) 3 in
    let b8 = rotl64 (Int64.logxor !a16 d1) 45 in
    let b9 = rotl64 (Int64.logxor !a22 d2) 61 in
    let b10 = rotl64 (Int64.logxor !a1 d1) 1 in
    let b11 = rotl64 (Int64.logxor !a7 d2) 6 in
    let b12 = rotl64 (Int64.logxor !a13 d3) 25 in
    let b13 = rotl64 (Int64.logxor !a19 d4) 8 in
    let b14 = rotl64 (Int64.logxor !a20 d0) 18 in
    let b15 = rotl64 (Int64.logxor !a4 d4) 27 in
    let b16 = rotl64 (Int64.logxor !a5 d0) 36 in
    let b17 = rotl64 (Int64.logxor !a11 d1) 10 in
    let b18 = rotl64 (Int64.logxor !a17 d2) 15 in
    let b19 = rotl64 (Int64.logxor !a23 d3) 56 in
    let b20 = rotl64 (Int64.logxor !a2 d2) 62 in
    let b21 = rotl64 (Int64.logxor !a8 d3) 55 in
    let b22 = rotl64 (Int64.logxor !a14 d4) 39 in
    let b23 = rotl64 (Int64.logxor !a15 d0) 41 in
    let b24 = rotl64 (Int64.logxor !a21 d1) 2 in
    (* chi, then iota on lane 0 *)
    a0 := Int64.logxor (chi b0 b1 b2) (Array.unsafe_get round_constants round);
    a1 := chi b1 b2 b3;
    a2 := chi b2 b3 b4;
    a3 := chi b3 b4 b0;
    a4 := chi b4 b0 b1;
    a5 := chi b5 b6 b7;
    a6 := chi b6 b7 b8;
    a7 := chi b7 b8 b9;
    a8 := chi b8 b9 b5;
    a9 := chi b9 b5 b6;
    a10 := chi b10 b11 b12;
    a11 := chi b11 b12 b13;
    a12 := chi b12 b13 b14;
    a13 := chi b13 b14 b10;
    a14 := chi b14 b10 b11;
    a15 := chi b15 b16 b17;
    a16 := chi b16 b17 b18;
    a17 := chi b17 b18 b19;
    a18 := chi b18 b19 b15;
    a19 := chi b19 b15 b16;
    a20 := chi b20 b21 b22;
    a21 := chi b21 b22 b23;
    a22 := chi b22 b23 b24;
    a23 := chi b23 b24 b20;
    a24 := chi b24 b20 b21
  done;
  store st 0 !a0;
  store st 1 !a1;
  store st 2 !a2;
  store st 3 !a3;
  store st 4 !a4;
  store st 5 !a5;
  store st 6 !a6;
  store st 7 !a7;
  store st 8 !a8;
  store st 9 !a9;
  store st 10 !a10;
  store st 11 !a11;
  store st 12 !a12;
  store st 13 !a13;
  store st 14 !a14;
  store st 15 !a15;
  store st 16 !a16;
  store st 17 !a17;
  store st 18 !a18;
  store st 19 !a19;
  store st 20 !a20;
  store st 21 !a21;
  store st 22 !a22;
  store st 23 !a23;
  store st 24 !a24

let state_bytes = 200

type xof = {
  state : bytes;
  rate : int; (* bytes *)
  mutable pos : int; (* squeeze position within the current block *)
  mutable perms : int;
}

let[@inline] xor_byte st i v =
  Bytes.unsafe_set st i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get st i) lxor v))

let permute t =
  keccak_f t.state;
  t.perms <- t.perms + 1

let absorb ~rate ~suffix msg =
  let t = { state = Bytes.make state_bytes '\000'; rate; pos = 0; perms = 0 } in
  let st = t.state in
  let len = Bytes.length msg in
  let off = ref 0 in
  for i = 0 to len - 1 do
    xor_byte st !off (Char.code (Bytes.unsafe_get msg i));
    incr off;
    if !off = rate then begin
      permute t;
      off := 0
    end
  done;
  (* Pad: suffix byte then 0x80 at the end of the rate block. *)
  xor_byte st !off suffix;
  xor_byte st (rate - 1) 0x80;
  permute t;
  t

let shake128 msg = absorb ~rate:168 ~suffix:0x1f msg
let shake256 msg = absorb ~rate:136 ~suffix:0x1f msg

(* The first [rate] state bytes are the output block: copy runs of them,
   permuting whenever the block is used up. *)
let squeeze_into t out =
  let len = Bytes.length out in
  let i = ref 0 in
  while !i < len do
    if t.pos = t.rate then begin
      permute t;
      t.pos <- 0
    end;
    let left = t.rate - t.pos in
    let take = if len - !i < left then len - !i else left in
    Bytes.blit t.state t.pos out !i take;
    t.pos <- t.pos + take;
    i := !i + take
  done

let squeeze t n =
  let out = Bytes.create n in
  squeeze_into t out;
  out

let permutations t = t.perms
let shake128_digest msg n = squeeze (shake128 msg) n
let shake256_digest msg n = squeeze (shake256 msg) n

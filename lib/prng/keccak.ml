(* Keccak-f[1600] on an int64 state of 25 lanes, FIPS 202 parameters. *)

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

let rotations =
  [| 0; 1; 62; 28; 27; 36; 44; 6; 55; 20; 3; 10; 43; 25; 39; 41; 45; 15; 21;
     8; 18; 2; 61; 56; 14 |]

let rotl64 x n =
  if n = 0 then x
  else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let keccak_f (st : int64 array) =
  let c = Array.make 5 0L in
  let b = Array.make 25 0L in
  for round = 0 to 23 do
    (* theta *)
    for x = 0 to 4 do
      c.(x) <-
        Int64.logxor st.(x)
          (Int64.logxor st.(x + 5)
             (Int64.logxor st.(x + 10) (Int64.logxor st.(x + 15) st.(x + 20))))
    done;
    for x = 0 to 4 do
      let d = Int64.logxor c.((x + 4) mod 5) (rotl64 c.((x + 1) mod 5) 1) in
      for y = 0 to 4 do
        st.(x + (5 * y)) <- Int64.logxor st.(x + (5 * y)) d
      done
    done;
    (* rho + pi *)
    for x = 0 to 4 do
      for y = 0 to 4 do
        let src = x + (5 * y) in
        let dst = y + (5 * (((2 * x) + (3 * y)) mod 5)) in
        b.(dst) <- rotl64 st.(src) rotations.(src)
      done
    done;
    (* chi *)
    for x = 0 to 4 do
      for y = 0 to 4 do
        let i = x + (5 * y) in
        st.(i) <-
          Int64.logxor b.(i)
            (Int64.logand
               (Int64.lognot b.(((x + 1) mod 5) + (5 * y)))
               b.(((x + 2) mod 5) + (5 * y)))
      done
    done;
    (* iota *)
    st.(0) <- Int64.logxor st.(0) round_constants.(round)
  done

type xof = {
  state : int64 array;
  rate : int; (* bytes *)
  mutable pos : int; (* squeeze position within the current block *)
  mutable perms : int;
}

let xor_byte_into st i v =
  let lane = i / 8 and off = i mod 8 in
  st.(lane) <-
    Int64.logxor st.(lane) (Int64.shift_left (Int64.of_int v) (8 * off))

let byte_of_state st i =
  let lane = i / 8 and off = i mod 8 in
  Int64.to_int (Int64.shift_right_logical st.(lane) (8 * off)) land 0xff

let absorb ~rate ~suffix msg =
  let state = Array.make 25 0L in
  let t = { state; rate; pos = 0; perms = 0 } in
  let len = Bytes.length msg in
  let block_off = ref 0 in
  for i = 0 to len - 1 do
    xor_byte_into state !block_off (Char.code (Bytes.get msg i));
    incr block_off;
    if !block_off = rate then begin
      keccak_f state;
      t.perms <- t.perms + 1;
      block_off := 0
    end
  done;
  (* Pad: suffix byte then 0x80 at the end of the rate block. *)
  xor_byte_into state !block_off suffix;
  xor_byte_into state (rate - 1) 0x80;
  keccak_f state;
  t.perms <- t.perms + 1;
  t

let shake128 msg = absorb ~rate:168 ~suffix:0x1f msg
let shake256 msg = absorb ~rate:136 ~suffix:0x1f msg

let squeeze_into t out =
  for i = 0 to Bytes.length out - 1 do
    if t.pos = t.rate then begin
      keccak_f t.state;
      t.perms <- t.perms + 1;
      t.pos <- 0
    end;
    Bytes.set out i (Char.chr (byte_of_state t.state t.pos));
    t.pos <- t.pos + 1
  done

let squeeze t n =
  let out = Bytes.create n in
  squeeze_into t out;
  out

let permutations t = t.perms
let shake128_digest msg n = squeeze (shake128 msg) n
let shake256_digest msg n = squeeze (shake256 msg) n

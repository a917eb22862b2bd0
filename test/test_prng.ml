(* PRNG substrate: official test vectors for ChaCha20 (RFC 7539) and
   SHAKE128/256 (NIST FIPS 202 examples), plus Bitstream accounting. *)

module Hex = Ctg_util.Hex
module Chacha = Ctg_prng.Chacha20
module Keccak = Ctg_prng.Keccak
module Bs = Ctg_prng.Bitstream

let hex = Alcotest.(check string)

(* Spec-level reference for the block function (RFC 7539 Sec. 2.3): the
   state in an array, a quarter round over indices, arithmetic on native
   ints masked to 32 bits, so it shares no arithmetic with the library's
   unboxed-[Int32] body. *)
let ref_block_of ~key ~nonce counter =
  let mask32 = 0xFFFF_FFFF in
  let word b i = Int32.to_int (Bytes.get_int32_le b (4 * i)) land mask32 in
  let init =
    Array.concat
      [
        [| 0x61707865; 0x3320646e; 0x79622d32; 0x6b206574 |];
        Array.init 8 (word key);
        [| counter |];
        Array.init 3 (word nonce);
      ]
  in
  let x = Array.copy init in
  let rotl v n = ((v lsl n) lor (v lsr (32 - n))) land mask32 in
  let qr a b c d =
    x.(a) <- (x.(a) + x.(b)) land mask32;
    x.(d) <- rotl (x.(d) lxor x.(a)) 16;
    x.(c) <- (x.(c) + x.(d)) land mask32;
    x.(b) <- rotl (x.(b) lxor x.(c)) 12;
    x.(a) <- (x.(a) + x.(b)) land mask32;
    x.(d) <- rotl (x.(d) lxor x.(a)) 8;
    x.(c) <- (x.(c) + x.(d)) land mask32;
    x.(b) <- rotl (x.(b) lxor x.(c)) 7
  in
  for _ = 1 to 10 do
    qr 0 4 8 12; qr 1 5 9 13; qr 2 6 10 14; qr 3 7 11 15;
    qr 0 5 10 15; qr 1 6 11 12; qr 2 7 8 13; qr 3 4 9 14
  done;
  let out = Bytes.create 64 in
  Array.iteri
    (fun i v ->
      Bytes.set_int32_le out (4 * i) (Int32.of_int ((v + init.(i)) land mask32)))
    x;
  out

(* Random keys and nonces (about half their words are >= 2^31), the
   counter's edge values, and an unaligned offset into a larger buffer
   whose other bytes must stay untouched. *)
let block_matches_reference =
  let open QCheck in
  let raw n = Gen.(map Bytes.of_string (string_size ~gen:char (return n))) in
  let counter =
    Gen.(oneof [ oneofl [ 0; 1; 0xFFFF_FFFF ]; int_bound 0xFFFF_FFFF ])
  in
  let show (key, nonce, counter, off) =
    Printf.sprintf "key %s nonce %s counter %d off %d"
      (Hex.encode key) (Hex.encode nonce) counter off
  in
  Test.make ~name:"block_into = reference block" ~count:500
    (make ~print:show Gen.(quad (raw 32) (raw 12) counter (int_bound 15)))
    (fun (key, nonce, counter, off) ->
      let c = Chacha.create ~key ~nonce in
      let buf = Bytes.make (off + 80) '\xee' in
      Chacha.block_into c counter buf off;
      Bytes.equal (Bytes.sub buf off 64) (ref_block_of ~key ~nonce counter)
      && Bytes.sub_string buf 0 off = String.make off '\xee'
      && Bytes.sub_string buf (off + 64) 16 = String.make 16 '\xee')

let chacha_tests =
  [
    Alcotest.test_case "RFC 7539 block function vector" `Quick (fun () ->
        let key =
          Hex.decode
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        in
        let nonce = Hex.decode "000000090000004a00000000" in
        let c = Chacha.create ~key ~nonce in
        hex "block 1"
          ("10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
         ^ "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
          (Hex.encode (Chacha.block c 1)));
    Alcotest.test_case "RFC 7539 keystream (encryption vector)" `Quick
      (fun () ->
        (* Section 2.4.2: key 00..1f, nonce 000000000000004a00000000,
           counter starts at 1. *)
        let key =
          Hex.decode
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        in
        let nonce = Hex.decode "000000000000004a00000000" in
        let c = Chacha.create ~key ~nonce in
        let ks1 = Chacha.block c 1 in
        (* First bytes of the counter-1 keystream from the RFC's
           intermediate values. *)
        hex "keystream head" "224f51f3401bd9e12fde276fb8631ded"
          (Hex.encode (Bytes.sub ks1 0 16)));
    Alcotest.test_case "bad key/nonce lengths rejected" `Quick (fun () ->
        Alcotest.check_raises "key" (Invalid_argument "Chacha20.create: key must be 32 bytes")
          (fun () -> ignore (Chacha.create ~key:(Bytes.create 31) ~nonce:(Bytes.create 12)));
        Alcotest.check_raises "nonce" (Invalid_argument "Chacha20.create: nonce must be 12 bytes")
          (fun () -> ignore (Chacha.create ~key:(Bytes.create 32) ~nonce:(Bytes.create 11))));
    Alcotest.test_case "next_bytes = concatenated blocks" `Quick (fun () ->
        let mk () = Chacha.of_seed "stream-test" in
        let c1 = mk () and c2 = mk () in
        let a = Chacha.next_bytes c1 100 in
        let b1 = Chacha.next_bytes c2 37 in
        let b2 = Chacha.next_bytes c2 63 in
        let b = Bytes.cat b1 b2 in
        hex "split agnostic" (Hex.encode a) (Hex.encode b));
    Alcotest.test_case "block accounting" `Quick (fun () ->
        let c = Chacha.of_seed "count" in
        ignore (Chacha.next_bytes c 129);
        Alcotest.(check int) "3 blocks for 129 bytes" 3 (Chacha.blocks_generated c));
    Alcotest.test_case "RFC 7539 block vector through block_into" `Quick
      (fun () ->
        let key =
          Hex.decode
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        in
        let nonce = Hex.decode "000000090000004a00000000" in
        let c = Chacha.create ~key ~nonce in
        (* Written at an unaligned offset of a larger buffer, whose
           surrounding bytes must stay untouched. *)
        let buf = Bytes.make 80 '\xee' in
        Chacha.block_into c 1 buf 7;
        hex "block 1"
          ("10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
         ^ "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
          (Hex.encode (Bytes.sub buf 7 64));
        hex "head untouched" "ee" (Hex.encode (Bytes.sub buf 6 1));
        hex "tail untouched" "ee" (Hex.encode (Bytes.sub buf 71 1));
        Alcotest.check_raises "range checked"
          (Invalid_argument "Chacha20.block_into") (fun () ->
            Chacha.block_into c 1 buf 17));
    Alcotest.test_case "next_bytes_into = next_bytes" `Quick (fun () ->
        let c1 = Chacha.of_seed "into" and c2 = Chacha.of_seed "into" in
        let a = Chacha.next_bytes c1 300 in
        let b = Bytes.create 310 in
        (* A ragged head, two whole blocks in place, a ragged tail. *)
        List.fold_left
          (fun off n ->
            Chacha.next_bytes_into c2 b off n;
            off + n)
          5 [ 3; 128; 100; 69 ]
        |> ignore;
        hex "same keystream" (Hex.encode a) (Hex.encode (Bytes.sub b 5 300));
        Alcotest.(check int) "same blocks" (Chacha.blocks_generated c1)
          (Chacha.blocks_generated c2));
    Alcotest.test_case "block counter must not wrap" `Quick (fun () ->
        let key = Bytes.make 32 '\xff' and nonce = Bytes.make 12 '\xff' in
        let c = Chacha.create ~key ~nonce in
        let buf = Bytes.create Chacha.block_size in
        Chacha.block_into c 0xFFFF_FFFF buf 0;
        hex "last block"
          (Hex.encode (ref_block_of ~key ~nonce 0xFFFF_FFFF))
          (Hex.encode buf);
        List.iter
          (fun counter ->
            match Chacha.block_into c counter buf 0 with
            | () -> Alcotest.failf "counter %d accepted" counter
            | exception Invalid_argument _ -> ())
          [ 1 lsl 32; -1; max_int ];
        Alcotest.(check int) "only the valid block counted" 1
          (Chacha.blocks_generated c));
    Alcotest.test_case "block_into and next_word allocate nothing" `Quick
      (fun () ->
        let c = Chacha.of_seed "alloc" in
        let buf = Bytes.create Chacha.block_size in
        Chacha.block_into c 0 buf 0;
        let w0 = Gc.minor_words () in
        for i = 1 to 10_000 do
          Chacha.block_into c i buf 0
        done;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check (float 0.0)) "words per block" 0.0 (words /. 10_000.);
        let bs = Bs.of_chacha (Chacha.of_seed "alloc") in
        ignore (Bs.next_word bs);
        let w0 = Gc.minor_words () in
        for _ = 1 to 10_000 do
          ignore (Sys.opaque_identity (Bs.next_word bs))
        done;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check (float 0.0)) "words per next_word" 0.0 (words /. 10_000.));
  ]
  @ List.map QCheck_alcotest.to_alcotest [ block_matches_reference ]

(* Spec-level reference sponge: the boxed [int64 array] Keccak-f and the
   byte-at-a-time absorb and squeeze that the library ran before its
   permutation moved to unboxed lanes over a byte state.  It shares no code
   with the library. *)
module Ref_keccak = struct
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
    [| 0; 1; 62; 28; 27; 36; 44; 6; 55; 20; 3; 10; 43; 25; 39; 41; 45; 15;
       21; 8; 18; 2; 61; 56; 14 |]

  let rotl64 x n =
    if n = 0 then x
    else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

  let keccak_f (st : int64 array) =
    let c = Array.make 5 0L in
    let b = Array.make 25 0L in
    for round = 0 to 23 do
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
      for x = 0 to 4 do
        for y = 0 to 4 do
          let src = x + (5 * y) in
          let dst = y + (5 * (((2 * x) + (3 * y)) mod 5)) in
          b.(dst) <- rotl64 st.(src) rotations.(src)
        done
      done;
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
      st.(0) <- Int64.logxor st.(0) round_constants.(round)
    done

  type xof = {
    state : int64 array;
    rate : int;
    mutable pos : int;
    mutable perms : int;
  }

  let xor_byte_into st i v =
    let lane = i / 8 and off = i mod 8 in
    st.(lane) <-
      Int64.logxor st.(lane) (Int64.shift_left (Int64.of_int v) (8 * off))

  let byte_of_state st i =
    let lane = i / 8 and off = i mod 8 in
    Int64.to_int (Int64.shift_right_logical st.(lane) (8 * off)) land 0xff

  let absorb ~rate msg =
    let t = { state = Array.make 25 0L; rate; pos = 0; perms = 0 } in
    let block_off = ref 0 in
    Bytes.iter
      (fun ch ->
        xor_byte_into t.state !block_off (Char.code ch);
        incr block_off;
        if !block_off = rate then begin
          keccak_f t.state;
          t.perms <- t.perms + 1;
          block_off := 0
        end)
      msg;
    xor_byte_into t.state !block_off 0x1f;
    xor_byte_into t.state (rate - 1) 0x80;
    keccak_f t.state;
    t.perms <- t.perms + 1;
    t

  let squeeze t n =
    Bytes.init n (fun _ ->
        if t.pos = t.rate then begin
          keccak_f t.state;
          t.perms <- t.perms + 1;
          t.pos <- 0
        end;
        let b = byte_of_state t.state t.pos in
        t.pos <- t.pos + 1;
        Char.chr b)
end

(* Inputs of 0-600 bytes cross both rates (136 and 168) several times, and
   the output is cut into random pieces, so squeezes start and end on and
   off block edges. *)
let sponge_matches_reference =
  let open QCheck in
  let gen =
    Gen.(
      triple bool
        (map Bytes.of_string (string_size ~gen:char (int_bound 600)))
        (list_size (int_range 1 6) (int_bound 400)))
  in
  let show (s128, msg, cuts) =
    Printf.sprintf "%s len %d cuts [%s]"
      (if s128 then "shake128" else "shake256")
      (Bytes.length msg)
      (String.concat "; " (List.map string_of_int cuts))
  in
  Test.make ~name:"sponge = reference sponge" ~count:300
    (make ~print:show gen)
    (fun (s128, msg, cuts) ->
      let x = if s128 then Keccak.shake128 msg else Keccak.shake256 msg in
      let r = Ref_keccak.absorb ~rate:(if s128 then 168 else 136) msg in
      List.for_all
        (fun n ->
          Bytes.equal (Keccak.squeeze x n) (Ref_keccak.squeeze r n)
          && Keccak.permutations x = r.Ref_keccak.perms)
        cuts)

let keccak_tests =
  [
    Alcotest.test_case "SHAKE128(empty) first 32 bytes" `Quick (fun () ->
        hex "digest"
          "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26"
          (Hex.encode (Keccak.shake128_digest (Bytes.create 0) 32)));
    Alcotest.test_case "SHAKE256(empty) first 32 bytes" `Quick (fun () ->
        hex "digest"
          "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
          (Hex.encode (Keccak.shake256_digest (Bytes.create 0) 32)));
    Alcotest.test_case "SHAKE128(\"abc\")" `Quick (fun () ->
        hex "digest" "5881092dd818bf5cf8a3ddb793fbcba74097d5c526a6d35f97b83351940f2cc8"
          (Hex.encode (Keccak.shake128_digest (Bytes.of_string "abc") 32)));
    Alcotest.test_case "incremental squeeze = one-shot" `Quick (fun () ->
        let msg = Bytes.of_string "incremental squeezing" in
        let x = Keccak.shake128 msg in
        let p1 = Keccak.squeeze x 7 in
        let p2 = Keccak.squeeze x 170 in
        let p3 = Keccak.squeeze x 23 in
        let parts = Bytes.concat Bytes.empty [ p1; p2; p3 ] in
        hex "equal" (Hex.encode (Keccak.shake128_digest msg 200)) (Hex.encode parts));
    Alcotest.test_case "long input crosses the rate boundary" `Quick (fun () ->
        (* 200 bytes > rate 168: exercises multi-block absorption. *)
        let msg = Bytes.make 200 '\x5a' in
        let d = Keccak.shake128_digest msg 16 in
        Alcotest.(check int) "16 bytes" 16 (Bytes.length d);
        (* Deterministic: same input, same output. *)
        hex "stable" (Hex.encode d) (Hex.encode (Keccak.shake128_digest msg 16)));
    Alcotest.test_case "one-block squeeze allocates nothing" `Quick (fun () ->
        let x = Keccak.shake128 (Bytes.of_string "alloc") in
        let out = Bytes.create 168 in
        (* Use up the absorb's block, so the timed call permutes once. *)
        Keccak.squeeze_into x out;
        let p0 = Keccak.permutations x in
        let w0 = Gc.minor_words () in
        Keccak.squeeze_into x out;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check int) "one permutation" 1 (Keccak.permutations x - p0);
        Alcotest.(check (float 0.0)) "minor words" 0.0 words);
    Alcotest.test_case "hash-to-point allocates its output and a constant"
      `Quick (fun () ->
        let salt = Bytes.make 40 's' and msg = Bytes.make 32 'm' in
        let hash () = Ctg_falcon.Hash_point.hash ~n:512 ~salt ~msg in
        ignore (hash ());
        (* [Gc.minor_words] is exact; [Gc.counters] counts the output,
           which is too large for the minor heap, as a major allocation. *)
        let _, promoted0, major0 = Gc.counters () in
        let minor0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (hash ()));
        let minor1 = Gc.minor_words () in
        let _, promoted1, major1 = Gc.counters () in
        let words =
          minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
        in
        (* The 513-word output, then the input copy, sponge state, squeeze
           buffer and their headers: well under 200 words. *)
        Alcotest.(check bool)
          (Printf.sprintf "%.0f words <= 513 + 200" words)
          true
          (words <= 513. +. 200.));
  ]
  @ List.map QCheck_alcotest.to_alcotest [ sponge_matches_reference ]

let bitstream_tests =
  [
    Alcotest.test_case "of_bits replay and End_of_file" `Quick (fun () ->
        let bs = Bs.of_bits [| true; false; true; true |] in
        Alcotest.(check int) "b0" 1 (Bs.next_bit bs);
        Alcotest.(check int) "b1" 0 (Bs.next_bit bs);
        Alcotest.(check int) "b2" 1 (Bs.next_bit bs);
        Alcotest.(check int) "b3" 1 (Bs.next_bit bs);
        Alcotest.check_raises "exhausted" End_of_file (fun () ->
            ignore (Bs.next_bit bs)));
    Alcotest.test_case "next_bits packs LSB-first" `Quick (fun () ->
        let bs = Bs.of_bits [| true; false; true; true; false |] in
        Alcotest.(check int) "11012 reversed" 0b1101 (Bs.next_bits bs 4));
    Alcotest.test_case "bits_consumed accounting" `Quick (fun () ->
        let bs = Bs.of_chacha (Chacha.of_seed "acct") in
        ignore (Bs.next_bits bs 13);
        ignore (Bs.next_bit bs);
        ignore (Bs.next_word bs);
        Alcotest.(check int) "13+1+64" 78 (Bs.bits_consumed bs));
    Alcotest.test_case "chacha bitstream deterministic per seed" `Quick
      (fun () ->
        let a = Bs.of_chacha (Chacha.of_seed "det") in
        let b = Bs.of_chacha (Chacha.of_seed "det") in
        for _ = 1 to 100 do
          Alcotest.(check int) "same" (Bs.next_bits a 11) (Bs.next_bits b 11)
        done);
    Alcotest.test_case "prng_work reports backend blocks" `Quick (fun () ->
        let bs = Bs.of_chacha (Chacha.of_seed "work") in
        ignore (Bs.next_bits bs 8);
        Alcotest.(check bool) "some work" true (Bs.prng_work bs >= 1));
  ]

(* Cost accounting is a measured quantity in the paper's Sec. 7 experiment,
   so it gets its own contract tests: identical draw sequences must report
   identical bits_consumed on every backend, and the bit-packing edge cases
   must hold exactly. *)
let accounting_tests =
  let backends () =
    [
      ("chacha", Bs.of_chacha (Chacha.of_seed "acct-x"));
      ("shake", Bs.of_shake (Keccak.shake128 (Bytes.of_string "acct-x")));
      ("splitmix", Bs.of_splitmix (Ctg_prng.Splitmix64.create 99L));
      ("fixed", Bs.of_bits (Array.make 4096 true));
    ]
  in
  [
    Alcotest.test_case "bits_consumed agrees across backends" `Quick (fun () ->
        (* One mixed draw sequence; the accounted total is backend-free
           even though byte-oriented backends round refills up. *)
        let draw bs =
          ignore (Bs.next_bit bs);
          ignore (Bs.next_bits bs 13);
          ignore (Bs.next_byte bs);
          ignore (Bs.next_bits bs 54);
          ignore (Bs.next_bits bs 0);
          Bs.next_bytes_into bs (Bytes.create 5);
          Bs.bits_consumed bs
        in
        let totals = List.map (fun (name, bs) -> (name, draw bs)) (backends ()) in
        let expected = 1 + 13 + 8 + 54 + 0 + 40 in
        List.iter
          (fun (name, total) -> Alcotest.(check int) name expected total)
          totals);
    Alcotest.test_case "next_word accounting per backend" `Quick (fun () ->
        (* Real backends draw a whole 64-bit pattern and discard one bit;
           the Fixed backend replays exactly 63 — both are documented, and
           both must be what bits_consumed reports. *)
        List.iter
          (fun (name, bs) ->
            ignore (Bs.next_word bs);
            let expected = if name = "fixed" then 63 else 64 in
            Alcotest.(check int) name expected (Bs.bits_consumed bs))
          (backends ()));
    Alcotest.test_case "next_bits k = 0 consumes nothing" `Quick (fun () ->
        List.iter
          (fun (name, bs) ->
            Alcotest.(check int) (name ^ " value") 0 (Bs.next_bits bs 0);
            Alcotest.(check int) (name ^ " consumed") 0 (Bs.bits_consumed bs))
          (backends ()));
    Alcotest.test_case "next_bits k = 54 boundary" `Quick (fun () ->
        (* All-ones fixed stream: the maximal legal draw is exact. *)
        let bs = Bs.of_bits (Array.make 54 true) in
        Alcotest.(check int) "full word" ((1 lsl 54) - 1) (Bs.next_bits bs 54);
        Alcotest.(check int) "consumed" 54 (Bs.bits_consumed bs));
    Alcotest.test_case "next_bits out-of-range k raises" `Quick (fun () ->
        List.iter
          (fun k ->
            List.iter
              (fun (name, bs) ->
                Alcotest.check_raises
                  (Printf.sprintf "%s k=%d" name k)
                  (Invalid_argument "Bitstream.next_bits")
                  (fun () -> ignore (Bs.next_bits bs k)))
              (backends ()))
          [ -1; 55; 63 ]);
    Alcotest.test_case "of_bits end-of-stream behaviour" `Quick (fun () ->
        (* A partial refill must not strand the position: after End_of_file
           the remaining bits are still gone (the draw was attempted). *)
        let bs = Bs.of_bits [| true; false; true |] in
        Alcotest.(check int) "first two" 0b01 (Bs.next_bits bs 2);
        Alcotest.check_raises "3 bits left of 1" End_of_file (fun () ->
            ignore (Bs.next_bits bs 2));
        let bs2 = Bs.of_bits [| true; true |] in
        Alcotest.(check int) "exact drain" 0b11 (Bs.next_bits bs2 2);
        Alcotest.check_raises "then empty" End_of_file (fun () ->
            ignore (Bs.next_bit bs2));
        let bs3 = Bs.of_bits (Array.make 10 true) in
        Alcotest.check_raises "word needs 63" End_of_file (fun () ->
            ignore (Bs.next_word bs3)));
    Alcotest.test_case "prng_work matches backend block sizes" `Quick (fun () ->
        (* 100 bytes = 2 ChaCha blocks (64 B) but only 1 SHAKE128 squeeze
           block (168 B rate): the unit really is backend-specific. *)
        let chacha = Bs.of_chacha (Chacha.of_seed "work-cmp") in
        let shake = Bs.of_shake (Keccak.shake128 (Bytes.of_string "work-cmp")) in
        Bs.next_bytes_into chacha (Bytes.create 100);
        Bs.next_bytes_into shake (Bytes.create 100);
        Alcotest.(check int) "chacha blocks" 2 (Bs.prng_work chacha);
        Alcotest.(check int) "keccak permutations" 1 (Bs.prng_work shake));
  ]

let prop_tests =
  let open QCheck in
  List.map QCheck_alcotest.to_alcotest
    [
      Test.make ~name:"next_bits value fits in k bits" ~count:200
        (pair small_nat (int_bound 54))
        (fun (seed, k) ->
          let bs = Bs.of_splitmix (Ctg_prng.Splitmix64.create (Int64.of_int seed)) in
          let v = Bs.next_bits bs k in
          v >= 0 && (k = 0 || v < 1 lsl k || k >= 54));
      Test.make ~name:"splitmix bounded draws in range" ~count:200
        (pair small_nat (int_range 1 1000))
        (fun (seed, bound) ->
          let rng = Ctg_prng.Splitmix64.create (Int64.of_int seed) in
          let v = Ctg_prng.Splitmix64.next_int rng bound in
          v >= 0 && v < bound);
      Test.make ~name:"fixed bitstream word matches bit order" ~count:50
        small_nat
        (fun seed ->
          let rng = Ctg_prng.Splitmix64.create (Int64.of_int seed) in
          let bits = Array.init 63 (fun _ -> Ctg_prng.Splitmix64.next_int rng 2 = 1) in
          let bs = Bs.of_bits bits in
          let w = Bs.next_word bs in
          let ok = ref true in
          for i = 0 to 62 do
            if (w lsr i) land 1 = 1 <> bits.(i) then ok := false
          done;
          !ok);
    ]

(* The block backend's word path (8-byte loads, block straddles, bulk
   refills) against the plain byte path over the same keystream: a
   byte-function stream fed one ChaCha20 byte at a time must serve the
   same values under any interleaving of the read operations. *)
type op = Word | Bit | Bits of int | Byte | Bytes_into of int

let show_op = function
  | Word -> "word"
  | Bit -> "bit"
  | Bits k -> Printf.sprintf "bits %d" k
  | Byte -> "byte"
  | Bytes_into n -> Printf.sprintf "bytes_into %d" n

let ops_arb =
  let open QCheck in
  let op =
    Gen.frequency
      [
        (4, Gen.return Word);
        (1, Gen.return Bit);
        (2, Gen.map (fun k -> Bits k) (Gen.int_bound 54));
        (1, Gen.return Byte);
        (1, Gen.map (fun n -> Bytes_into n) (Gen.int_bound 150));
      ]
  in
  make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map show_op ops)))
    Gen.(pair small_nat (list_size (int_range 1 120) op))

let run_op bs = function
  | Word -> [ Bs.next_word bs ]
  | Bit -> [ Bs.next_bit bs ]
  | Bits k -> [ Bs.next_bits bs k ]
  | Byte -> [ Bs.next_byte bs ]
  | Bytes_into n ->
    let b = Bytes.create n in
    Bs.next_bytes_into bs b;
    List.init n (fun i -> Char.code (Bytes.get b i))

let word_path_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"chacha block path = byte-function path" ~count:300
        ops_arb (fun (seed, ops) ->
          let key = Printf.sprintf "equiv-%d" seed in
          let fast = Bs.of_chacha (Chacha.of_seed key) in
          let src = Chacha.of_seed key in
          let slow =
            Bs.of_byte_fn (fun () -> Char.code (Bytes.get (Chacha.next_bytes src 1) 0))
          in
          List.for_all
            (fun op ->
              run_op fast op = run_op slow op
              && Bs.bits_consumed fast = Bs.bits_consumed slow
              && Bs.prng_work fast = Chacha.blocks_generated src)
            ops);
    ]

(* SP 800-90B-style health tests: each defect class must trip its matching
   test, and a fair source must sail through every window. *)
module Health = Ctg_prng.Health

let unit32 sm =
  Int64.to_int (Int64.shift_right_logical (Ctg_prng.Splitmix64.next sm) 32)

let expect_trip name want feed =
  let h = Health.create ~label:name () in
  match feed h with
  | () -> Alcotest.failf "%s: no health test tripped" name
  | exception Health.Entropy_failure f ->
    Alcotest.(check string)
      (name ^ " tripped the right test")
      (Health.test_name want) (Health.test_name f.Health.test)

let health_tests =
  [
    Alcotest.test_case "repetition-count trips on a stuck source" `Quick
      (fun () ->
        expect_trip "rct" Health.Repetition (fun h ->
            for _ = 1 to Health.rct_cutoff + 1 do
              Health.check_unit h 0xDEAD
            done));
    Alcotest.test_case "adaptive-proportion trips on periodic repetition"
      `Quick (fun () ->
        (* Period 4: no two consecutive units are equal (RCT blind), but
           the window's first unit keeps recurring. *)
        let cycle = [| 0x1111; 0x2222; 0x3333; 0x4444 |] in
        expect_trip "apt" Health.Adaptive_proportion (fun h ->
            for i = 0 to (Health.apt_window * 2) - 1 do
              Health.check_unit h cycle.(i mod 4)
            done));
    Alcotest.test_case "stuck-bit trips on a frozen line" `Quick (fun () ->
        let sm = Ctg_prng.Splitmix64.create 0xBEEFL in
        expect_trip "stuck" Health.Stuck_bit (fun h ->
            (* The stuck/ones tests sample one unit in four, so a full
               window spans 4x its length in scanned units. *)
            for _ = 1 to (4 * Health.stuck_window) + 4 do
              (* Bit 5 welded to one; everything else random. *)
              Health.check_unit h (unit32 sm lor 0x20)
            done));
    Alcotest.test_case "ones-proportion trips on global bias" `Quick
      (fun () ->
        let sm = Ctg_prng.Splitmix64.create 0xB1A5L in
        expect_trip "ones" Health.Ones_proportion (fun h ->
            for _ = 1 to (4 * Health.ones_window_units) + 4 do
              (* OR of two draws: every bit one with probability 3/4 —
                 no single bit frozen, no repetition, just bias. *)
              Health.check_unit h (unit32 sm lor unit32 sm)
            done));
    Alcotest.test_case "fair source passes multiple full windows" `Quick
      (fun () ->
        let sm = Ctg_prng.Splitmix64.create 0xFA1EL in
        let h = Health.create () in
        for _ = 1 to 4 * Health.ones_window_units do
          Health.check_unit h (unit32 sm)
        done;
        Alcotest.(check int)
          "all units counted"
          (4 * Health.ones_window_units)
          (Health.units_checked h));
    Alcotest.test_case "bytes pack LSB-first into units" `Quick (fun () ->
        let h = Health.create () in
        List.iter (Health.check_byte h) [ 0x78; 0x56; 0x34; 0x12 ];
        Alcotest.(check int) "one unit" 1 (Health.units_checked h);
        let h2 = Health.create () in
        Health.scan_block h2 (Bytes.of_string "\x78\x56\x34\x12");
        Alcotest.(check int) "block = bytes" 1 (Health.units_checked h2));
    Alcotest.test_case "attached to a bitstream, trips before serving bits"
      `Quick (fun () ->
        let bs = Bs.of_byte_fn (fun () -> 0xAA) in
        Bs.attach_health bs (Health.create ~label:"lane-test" ());
        match
          for _ = 1 to 100 do
            ignore (Bs.next_word bs)
          done
        with
        | () -> Alcotest.fail "stuck stream served bits unchallenged"
        | exception Health.Entropy_failure f ->
          Alcotest.(check string) "lane label" "lane-test" f.Health.label);
  ]

(* Block scans take a register fast path that falls back to the per-unit
   checks; both must reach the same verdict, on the same test and with
   the same report, at every window boundary.  Each case streams enough
   blocks to close several ones-proportion windows, and from a random
   block on applies one defect: a stuck bit, a biased source, repeated
   units at random positions or across block edges, or recurrences of
   the current APT window's first unit at random positions. *)
let scan_equivalence =
  let open QCheck in
  let defect_arb =
    make
      ~print:(fun (seed, kind, start) ->
        Printf.sprintf "seed %d, defect %d from block %d" seed kind start)
      Gen.(triple small_nat (int_bound 4) (int_bound 700))
  in
  Test.make ~name:"scan_block = check_unit per unit" ~count:100 defect_arb
    (fun (seed, kind, start) ->
      let sm = Ctg_prng.Splitmix64.create (Int64.of_int seed) in
      let blocks = 800 and units = 16 in
      let prev = ref 0 and window_first = ref 0 in
      let unit_at b i =
        let index = (b * units) + i in
        let u = unit32 sm in
        let u =
          if b < start then u
          else
            match kind with
            | 0 -> u lor 0x100
            | 1 -> u lor unit32 sm
            | 2 when u land 31 = 0 -> !prev
            | 3 when u land 31 = 0 && index mod Health.apt_window <> 0 ->
              !window_first
            | 4 when (i = 0 || i = units - 1) && u land 7 = 0 -> !prev
            | _ -> u
        in
        if index mod Health.apt_window = 0 then window_first := u;
        prev := u;
        u
      in
      let stream =
        Array.init blocks (fun b ->
            let buf = Bytes.create (4 * units) in
            for i = 0 to units - 1 do
              Bytes.set_int32_le buf (4 * i) (Int32.of_int (unit_at b i))
            done;
            buf)
      in
      let verdict feed =
        let h = Health.create () in
        match Array.iter (feed h) stream with
        | () -> (None, Health.units_checked h)
        | exception Health.Entropy_failure e ->
          (Some (Health.test_name e.Health.test, e.Health.detail), Health.units_checked h)
      in
      let fast = verdict Health.scan_block in
      let exact =
        verdict (fun h buf ->
            for k = 0 to units - 1 do
              Health.check_unit h
                (Int32.to_int (Bytes.get_int32_le buf (4 * k)) land 0xFFFFFFFF)
            done)
      in
      fast = exact)

let () =
  Alcotest.run "prng"
    [
      ("chacha20", chacha_tests);
      ("keccak", keccak_tests);
      ("bitstream", bitstream_tests);
      ("accounting", accounting_tests);
      ("health", health_tests @ [ QCheck_alcotest.to_alcotest scan_equivalence ]);
      ("properties", prop_tests);
      ("word-path", word_path_tests);
    ]

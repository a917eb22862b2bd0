(* RFC 7539 ChaCha20 block function on unboxed [Int32] words. *)

let mask32 = 0xFFFF_FFFF

let block_size = 64

type t = {
  state : int array; (* 16 words: constants, key, counter, nonce *)
  mutable counter : int;
  buf : bytes; (* keystream left over from a partial [next_bytes] *)
  mutable buf_pos : int; (* [block_size] when nothing is buffered *)
  mutable blocks : int;
}

let word_of_le buf off =
  Char.code (Bytes.get buf off)
  lor (Char.code (Bytes.get buf (off + 1)) lsl 8)
  lor (Char.code (Bytes.get buf (off + 2)) lsl 16)
  lor (Char.code (Bytes.get buf (off + 3)) lsl 24)

let le_of_word buf off w =
  Bytes.set buf off (Char.chr (w land 0xff));
  Bytes.set buf (off + 1) (Char.chr ((w lsr 8) land 0xff));
  Bytes.set buf (off + 2) (Char.chr ((w lsr 16) land 0xff));
  Bytes.set buf (off + 3) (Char.chr ((w lsr 24) land 0xff))

let create ~key ~nonce =
  if Bytes.length key <> 32 then invalid_arg "Chacha20.create: key must be 32 bytes";
  if Bytes.length nonce <> 12 then invalid_arg "Chacha20.create: nonce must be 12 bytes";
  let state = Array.make 16 0 in
  state.(0) <- 0x61707865;
  state.(1) <- 0x3320646e;
  state.(2) <- 0x79622d32;
  state.(3) <- 0x6b206574;
  for i = 0 to 7 do
    state.(4 + i) <- word_of_le key (4 * i)
  done;
  (* state.(12) is the counter, patched per block. *)
  for i = 0 to 2 do
    state.(13 + i) <- word_of_le nonce (4 * i)
  done;
  {
    state;
    counter = 0;
    buf = Bytes.create block_size;
    buf_pos = block_size;
    blocks = 0;
  }

(* Simple deterministic expansion of an arbitrary string into key||nonce;
   not a KDF, only for reproducible tests and benchmarks. *)
let material_of_seed seed =
  let material = Bytes.create 44 in
  let h = ref 0x1E3779B97F4A7C15 in
  for i = 0 to 43 do
    let c =
      if String.length seed = 0 then 0
      else Char.code seed.[i mod String.length seed]
    in
    h := (!h lxor c) * 0x100000001B3 land max_int;
    h := !h lxor (!h lsr 29);
    Bytes.set material i (Char.chr ((!h lsr 13) land 0xff))
  done;
  material

let of_seed seed =
  let material = material_of_seed seed in
  create ~key:(Bytes.sub material 0 32) ~nonce:(Bytes.sub material 32 12)

let key_of_seed seed = Bytes.sub (material_of_seed seed) 0 32

(* Keystream word [i] of the initial state as an [Int32]; the state keeps
   each word zero-extended in a native int. *)
let[@inline] word32 s i = Int32.of_int s.(i)

let[@inline] rotl32 x n =
  Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))

(* The 32 bits of [x] as a non-negative native int. *)
let[@inline] lo32 x = Int32.to_int x land mask32

external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Little-endian store of two 32-bit words [lo], [hi] as one 64-bit
   store; the int64 stays unboxed because the primitive consumes it
   directly.  Readers of a fresh block ([Health.scan_block],
   [Bitstream.next_word]) load it in 64-bit words, and a CPU forwards a
   load only from one store that covers it: after two 32-bit stores
   each such load stalls until both have reached the cache. *)
let store2 dst off lo hi =
  if Sys.big_endian then begin
    le_of_word dst off lo;
    le_of_word dst (off + 4) hi
  end
  else
    set64u dst off
      (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))

(* The block function on 16 local [Int32] refs, which ocamlopt keeps
   unboxed in registers (or stack slots) because none escapes: 32-bit adds
   wrap without a mask, and there is no state copy and no allocation.  The
   helpers above are top-level so that they inline; a local closure over
   [s] would be allocated per block. *)
let block_into t counter dst off =
  if off < 0 || off > Bytes.length dst - block_size then
    invalid_arg "Chacha20.block_into";
  (* RFC 7539 forbids a wrapping counter: block 2^32 would repeat block 0. *)
  if counter < 0 || counter > mask32 then
    invalid_arg "Chacha20.block_into: counter outside [0, 2^32)";
  let s = t.state in
  let c = Int32.of_int counter in
  let x0 = ref (word32 s 0) and x1 = ref (word32 s 1) in
  let x2 = ref (word32 s 2) and x3 = ref (word32 s 3) in
  let x4 = ref (word32 s 4) and x5 = ref (word32 s 5) in
  let x6 = ref (word32 s 6) and x7 = ref (word32 s 7) in
  let x8 = ref (word32 s 8) and x9 = ref (word32 s 9) in
  let x10 = ref (word32 s 10) and x11 = ref (word32 s 11) in
  let x12 = ref c and x13 = ref (word32 s 13) in
  let x14 = ref (word32 s 14) and x15 = ref (word32 s 15) in
  for _ = 1 to 10 do
    (* column round *)
    x0 := Int32.add !x0 !x4; x12 := rotl32 (Int32.logxor !x12 !x0) 16;
    x8 := Int32.add !x8 !x12; x4 := rotl32 (Int32.logxor !x4 !x8) 12;
    x0 := Int32.add !x0 !x4; x12 := rotl32 (Int32.logxor !x12 !x0) 8;
    x8 := Int32.add !x8 !x12; x4 := rotl32 (Int32.logxor !x4 !x8) 7;
    x1 := Int32.add !x1 !x5; x13 := rotl32 (Int32.logxor !x13 !x1) 16;
    x9 := Int32.add !x9 !x13; x5 := rotl32 (Int32.logxor !x5 !x9) 12;
    x1 := Int32.add !x1 !x5; x13 := rotl32 (Int32.logxor !x13 !x1) 8;
    x9 := Int32.add !x9 !x13; x5 := rotl32 (Int32.logxor !x5 !x9) 7;
    x2 := Int32.add !x2 !x6; x14 := rotl32 (Int32.logxor !x14 !x2) 16;
    x10 := Int32.add !x10 !x14; x6 := rotl32 (Int32.logxor !x6 !x10) 12;
    x2 := Int32.add !x2 !x6; x14 := rotl32 (Int32.logxor !x14 !x2) 8;
    x10 := Int32.add !x10 !x14; x6 := rotl32 (Int32.logxor !x6 !x10) 7;
    x3 := Int32.add !x3 !x7; x15 := rotl32 (Int32.logxor !x15 !x3) 16;
    x11 := Int32.add !x11 !x15; x7 := rotl32 (Int32.logxor !x7 !x11) 12;
    x3 := Int32.add !x3 !x7; x15 := rotl32 (Int32.logxor !x15 !x3) 8;
    x11 := Int32.add !x11 !x15; x7 := rotl32 (Int32.logxor !x7 !x11) 7;
    (* diagonal round *)
    x0 := Int32.add !x0 !x5; x15 := rotl32 (Int32.logxor !x15 !x0) 16;
    x10 := Int32.add !x10 !x15; x5 := rotl32 (Int32.logxor !x5 !x10) 12;
    x0 := Int32.add !x0 !x5; x15 := rotl32 (Int32.logxor !x15 !x0) 8;
    x10 := Int32.add !x10 !x15; x5 := rotl32 (Int32.logxor !x5 !x10) 7;
    x1 := Int32.add !x1 !x6; x12 := rotl32 (Int32.logxor !x12 !x1) 16;
    x11 := Int32.add !x11 !x12; x6 := rotl32 (Int32.logxor !x6 !x11) 12;
    x1 := Int32.add !x1 !x6; x12 := rotl32 (Int32.logxor !x12 !x1) 8;
    x11 := Int32.add !x11 !x12; x6 := rotl32 (Int32.logxor !x6 !x11) 7;
    x2 := Int32.add !x2 !x7; x13 := rotl32 (Int32.logxor !x13 !x2) 16;
    x8 := Int32.add !x8 !x13; x7 := rotl32 (Int32.logxor !x7 !x8) 12;
    x2 := Int32.add !x2 !x7; x13 := rotl32 (Int32.logxor !x13 !x2) 8;
    x8 := Int32.add !x8 !x13; x7 := rotl32 (Int32.logxor !x7 !x8) 7;
    x3 := Int32.add !x3 !x4; x14 := rotl32 (Int32.logxor !x14 !x3) 16;
    x9 := Int32.add !x9 !x14; x4 := rotl32 (Int32.logxor !x4 !x9) 12;
    x3 := Int32.add !x3 !x4; x14 := rotl32 (Int32.logxor !x14 !x3) 8;
    x9 := Int32.add !x9 !x14; x4 := rotl32 (Int32.logxor !x4 !x9) 7
  done;
  store2 dst off
    (lo32 (Int32.add !x0 (word32 s 0)))
    (lo32 (Int32.add !x1 (word32 s 1)));
  store2 dst (off + 8)
    (lo32 (Int32.add !x2 (word32 s 2)))
    (lo32 (Int32.add !x3 (word32 s 3)));
  store2 dst (off + 16)
    (lo32 (Int32.add !x4 (word32 s 4)))
    (lo32 (Int32.add !x5 (word32 s 5)));
  store2 dst (off + 24)
    (lo32 (Int32.add !x6 (word32 s 6)))
    (lo32 (Int32.add !x7 (word32 s 7)));
  store2 dst (off + 32)
    (lo32 (Int32.add !x8 (word32 s 8)))
    (lo32 (Int32.add !x9 (word32 s 9)));
  store2 dst (off + 40)
    (lo32 (Int32.add !x10 (word32 s 10)))
    (lo32 (Int32.add !x11 (word32 s 11)));
  store2 dst (off + 48)
    (lo32 (Int32.add !x12 c))
    (lo32 (Int32.add !x13 (word32 s 13)));
  store2 dst (off + 56)
    (lo32 (Int32.add !x14 (word32 s 14)))
    (lo32 (Int32.add !x15 (word32 s 15)));
  t.blocks <- t.blocks + 1

let block t counter =
  let out = Bytes.create block_size in
  block_into t counter out 0;
  out

(* Whole blocks go straight into [dst] while nothing is buffered; only a
   ragged head or tail passes through [t.buf]. *)
let next_bytes_into t dst off n =
  if off < 0 || n < 0 || off > Bytes.length dst - n then
    invalid_arg "Chacha20.next_bytes_into";
  let pos = ref 0 in
  while !pos < n do
    if t.buf_pos >= block_size && n - !pos >= block_size then begin
      block_into t t.counter dst (off + !pos);
      t.counter <- t.counter + 1;
      pos := !pos + block_size
    end
    else begin
      if t.buf_pos >= block_size then begin
        block_into t t.counter t.buf 0;
        t.counter <- t.counter + 1;
        t.buf_pos <- 0
      end;
      let take = min (n - !pos) (block_size - t.buf_pos) in
      Bytes.blit t.buf t.buf_pos dst (off + !pos) take;
      t.buf_pos <- t.buf_pos + take;
      pos := !pos + take
    end
  done

let next_bytes t n =
  let out = Bytes.create n in
  next_bytes_into t out 0 n;
  out

let blocks_generated t = t.blocks

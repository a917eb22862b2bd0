type backend =
  | Chacha of Chacha20.t
  | Shake of Keccak.xof
  | Splitmix of Splitmix64.t
  | Fixed of bool array
  | Byte_fn of (unit -> int)

type t = {
  backend : backend;
  mutable cur : int; (* bit buffer, bits served from the LSB up *)
  mutable cur_bits : int; (* bits remaining in [cur] *)
  block : bytes;
      (* the current backend block, refilled in place; empty for the
         Fixed and Byte_fn backends, which never use it *)
  mutable block_pos : int; (* [block_size] when the block is used up *)
  mutable consumed : int;
  mutable fixed_pos : int;
  mutable health : Health.t option;
      (* online entropy tests, fed at refill time so a tripped window
         raises before any byte of the bad block is served *)
}

let block_size = 64

let make backend =
  let block =
    match backend with
    | Chacha _ | Shake _ | Splitmix _ -> Bytes.create block_size
    | Fixed _ | Byte_fn _ -> Bytes.empty
  in
  {
    backend;
    cur = 0;
    cur_bits = 0;
    block;
    block_pos = block_size;
    consumed = 0;
    fixed_pos = 0;
    health = None;
  }

let of_chacha c = make (Chacha c)
let of_shake x = make (Shake x)
let of_splitmix s = make (Splitmix s)
let of_bits bits = make (Fixed bits)
let of_byte_fn f = make (Byte_fn f)

let attach_health t h = t.health <- Some h
let health t = t.health

(* Overwrite [t.block] with the backend's next block.  A fresh block is
   health-scanned in full before its first byte is served. *)
let refill_block t =
  (match t.backend with
  | Chacha c -> Chacha20.next_bytes_into c t.block 0 block_size
  | Shake x -> Keccak.squeeze_into x t.block
  | Splitmix s ->
    for i = 0 to (block_size / 8) - 1 do
      Bytes.set_int64_le t.block (8 * i) (Splitmix64.next s)
    done
  | Fixed _ | Byte_fn _ -> assert false);
  (match t.health with Some h -> Health.scan_block h t.block | None -> ());
  t.block_pos <- 0

(* Next raw byte from the backend, buffered a block at a time. *)
let raw_byte t =
  match t.backend with
  | Byte_fn f ->
    let v = f () land 0xff in
    (match t.health with Some h -> Health.check_byte h v | None -> ());
    v
  | Chacha _ | Shake _ | Splitmix _ | Fixed _ ->
    if t.block_pos >= block_size then refill_block t;
    let v = Char.code (Bytes.unsafe_get t.block t.block_pos) in
    t.block_pos <- t.block_pos + 1;
    v

(* Top the bit buffer up to at least [want] bits (want <= 54). *)
let refill t want =
  match t.backend with
  | Fixed bits ->
    while t.cur_bits < want do
      if t.fixed_pos >= Array.length bits then raise End_of_file;
      let b = if bits.(t.fixed_pos) then 1 else 0 in
      t.cur <- t.cur lor (b lsl t.cur_bits);
      t.fixed_pos <- t.fixed_pos + 1;
      t.cur_bits <- t.cur_bits + 1
    done
  | Chacha _ | Shake _ | Splitmix _ | Byte_fn _ ->
    while t.cur_bits < want do
      t.cur <- t.cur lor (raw_byte t lsl t.cur_bits);
      t.cur_bits <- t.cur_bits + 8
    done

let next_bit t =
  if t.cur_bits = 0 then refill t 1;
  let b = t.cur land 1 in
  t.cur <- t.cur lsr 1;
  t.cur_bits <- t.cur_bits - 1;
  t.consumed <- t.consumed + 1;
  b

let next_bits t k =
  if k < 0 || k > 54 then invalid_arg "Bitstream.next_bits";
  if t.cur_bits < k then refill t k;
  let v = t.cur land ((1 lsl k) - 1) in
  t.cur <- t.cur lsr k;
  t.cur_bits <- t.cur_bits - k;
  t.consumed <- t.consumed + k;
  v

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
(* Unaligned native-endian 64-bit load; the int64 stays unboxed because
   [Int64.to_int] consumes it immediately. *)

let word_of_bytes t =
  let acc = ref 0 in
  for i = 0 to 7 do
    acc := !acc lor (raw_byte t lsl (8 * i))
  done;
  !acc

(* Hot path of the bitsliced sampler: one 63-bit lane word per variable.
   Real backends serve whole bytes, little-endian (the 64th bit is dropped
   but counted); a word that fits in the current block is one 8-byte
   load, one that straddles two blocks goes byte by byte.  The Fixed
   backend keeps exact bit order for the equivalence tests. *)
let next_word t =
  match t.backend with
  | Fixed _ ->
    let lo = next_bits t 31 in
    let mid = next_bits t 31 in
    let hi = next_bit t in
    lo lor (mid lsl 31) lor (hi lsl 62)
  | Byte_fn _ ->
    let w = word_of_bytes t in
    t.consumed <- t.consumed + 64;
    w
  | Chacha _ | Shake _ | Splitmix _ ->
    if t.block_pos >= block_size then refill_block t;
    let pos = t.block_pos in
    let w =
      if pos <= block_size - 8 && not Sys.big_endian then begin
        t.block_pos <- pos + 8;
        Int64.to_int (get64u t.block pos)
      end
      else word_of_bytes t
    in
    t.consumed <- t.consumed + 64;
    w

let next_byte t = next_bits t 8
let bits_consumed t = t.consumed

let prng_work t =
  match t.backend with
  | Chacha c -> Chacha20.blocks_generated c
  | Shake x -> Keccak.permutations x
  | Splitmix _ | Fixed _ | Byte_fn _ -> 0

let next_bytes_into t buf =
  let n = Bytes.length buf in
  (match t.backend with
  | Fixed _ ->
    for i = 0 to n - 1 do
      Bytes.set buf i (Char.chr (next_bits t 8))
    done
  | Chacha _ | Shake _ | Splitmix _ | Byte_fn _ ->
    for i = 0 to n - 1 do
      Bytes.set buf i (Char.chr (raw_byte t))
    done;
    t.consumed <- t.consumed + (8 * n))

(* One SHAKE128 block per refill: a 2-byte draw never straddles two
   refills because the rate is even, and the XOF squeezes the same byte
   stream however it is cut. *)
let block = 168

let hash ~n ~salt ~msg =
  let input = Bytes.cat salt msg in
  let xof = Ctg_prng.Keccak.shake128 input in
  let buf = Bytes.create block in
  let pos = ref block in
  let out = Array.make n 0 in
  (* Accept 16-bit draws below 5·q = 61445 (the largest multiple of q
     below 2^16), reducing mod q: exactly uniform. *)
  let limit = 65536 / Zq.q * Zq.q in
  let i = ref 0 in
  while !i < n do
    if !pos = block then begin
      Ctg_prng.Keccak.squeeze_into xof buf;
      pos := 0
    end;
    let v = Bytes.get_uint16_be buf !pos in
    pos := !pos + 2;
    if v < limit then begin
      out.(!i) <- v mod Zq.q;
      incr i
    end
  done;
  out

module Bs = Ctg_prng.Bitstream

type instance = {
  name : string;
  constant_time : bool;
  sample_magnitude : Bs.t -> int;
  sample_traced : Bs.t -> int * int;
}

(* The sign bit is secret: negate without a branch on it, as
   [Ctgauss.Sampler.batch_signed_into] does ((m lxor -s) + s is m for
   s = 0 and -m for s = 1). *)
let sample_signed inst rng =
  let m = inst.sample_magnitude rng in
  let s = Bs.next_bit rng in
  (m lxor -s) + s

(* The constant-time claim is "every batch draws the same number of
   bits", so the trace evaluates one whole batch and reports the bits it
   consumed: a lane rescued by the scalar fallback walk shows up as extra
   bits. *)
let of_bitsliced s =
  {
    name = "bitsliced(" ^ Ctgauss.Sampler.sigma s ^ ")";
    constant_time = true;
    sample_magnitude = (fun rng -> Ctgauss.Sampler.sample_magnitude s rng);
    sample_traced =
      (fun rng ->
        let before = Bs.bits_consumed rng in
        let v = (Ctgauss.Sampler.batch_magnitude s rng).(0) in
        (v, Bs.bits_consumed rng - before));
  }

let knuth_yao_reference m =
  {
    name = "knuth-yao-ref";
    constant_time = false;
    sample_magnitude = (fun rng -> Ctg_kyao.Column_sampler.sample_magnitude m rng);
    sample_traced =
      (fun rng ->
        let before = Bs.bits_consumed rng in
        let v = Ctg_kyao.Column_sampler.sample_magnitude m rng in
        (v, Bs.bits_consumed rng - before));
  }

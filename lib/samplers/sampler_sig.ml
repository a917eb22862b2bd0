module Bs = Ctg_prng.Bitstream

type instance = {
  name : string;
  constant_time : bool;
  sample_magnitude : Bs.t -> int;
  sample_traced : Bs.t -> int * int;
}

let sample_signed inst rng =
  let m = inst.sample_magnitude rng in
  if Bs.next_bit rng = 1 then -m else m

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

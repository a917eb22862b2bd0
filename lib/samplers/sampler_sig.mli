(** Uniform wrapper over every sampler in the repo so the Falcon signer,
    the benchmarks and the dudect harness can swap them freely (the
    experiment knob of Table 1). *)

type instance = {
  name : string;
  constant_time : bool;  (** By construction; dudect re-checks empirically. *)
  sample_magnitude : Ctg_prng.Bitstream.t -> int;
  sample_traced : Ctg_prng.Bitstream.t -> int * int;
      (** [(value, data-dependent work units)] — byte comparisons for CDT
          samplers, consumed bits for Knuth-Yao, consumed bits of one
          whole batch for bitsliced. *)
}

val sample_signed : instance -> Ctg_prng.Bitstream.t -> int
(** Magnitude plus a uniform sign bit (folded distribution), applied
    without a branch on the bit. *)

val of_bitsliced : Ctgauss.Sampler.t -> instance
(** Per-sample view of a batch sampler (internal 63-sample buffer).  The
    trace evaluates one whole batch on the given stream and returns its
    first magnitude and the bits the batch consumed, scalar-fallback
    lanes included; it leaves the per-sample buffer alone. *)

val knuth_yao_reference : Ctg_kyao.Matrix.t -> instance
(** The non-constant-time Alg. 1 walk, traced by bits consumed. *)

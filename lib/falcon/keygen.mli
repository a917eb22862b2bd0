(** Falcon key generation: draw small [f, g], require [f] invertible mod q,
    compute [h = g·f⁻¹ mod q], solve the NTRU equation for [F, G], and
    precompute everything signing needs (FFT basis, LDL tree, norm bound). *)

type secret = {
  f : int array;
  g : int array;
  big_f : int array;
  big_g : int array;
}

type keypair = {
  params : Params.t;
  secret : secret;
  h : int array;  (** Public key, coefficients in [[0, q)]. *)
  h_ntt : int array;
      (** {!Ntt.forward} of [h], for verify-after-sign: computed once per
          keypair, so signers that alternate keys never recompute it. *)
  tree : Ldl.t;
  b1_fft : Fftc.t * Fftc.t;  (** (FFT g, FFT −f). *)
  b2_fft : Fftc.t * Fftc.t;  (** (FFT G, FFT −F). *)
  f_fft : Fftc.t;
  big_f_fft : Fftc.t;
  attempts : int;  (** (f, g) draws until NTRUSolve succeeded. *)
}

val generate : Params.t -> Ctg_prng.Bitstream.t -> keypair

val restore : Params.t -> secret:secret -> h:int array -> keypair
(** Rebuild the FFT basis and LDL tree from stored polynomials (the
    deserialization path; [attempts] is set to 0). *)

val check_ntru_equation : keypair -> bool
(** Exact check of [f·G − g·F = q] over Z[x]/(x^N+1). *)

val check_public_key : keypair -> bool
(** [f·h = g mod q]. *)

(** Falcon signing: hash-to-point, target computation, ffSampling with the
    pluggable base Gaussian sampler, norm rejection, retry with a fresh
    salt — the loop whose throughput the paper's Table 1 measures. *)

type signature = {
  salt : bytes;
  s1 : int array;  (** Recomputable from s2; kept for tests/inspection. *)
  s2 : int array;
  norm_sq : float;
  attempts : int;  (** Salt draws until the norm check passed. *)
}

val norm_bound_sq : Params.t -> float
(** Acceptance bound ‖(s1,s2)‖², a scheme constant shared by signer and
    verifier: 1.6 × the expected squared norm of a signature produced with
    the fixed σ=2 base sampler (error variance σ² + 1/12 per Gram-Schmidt
    coordinate, Σ‖b̃_i‖² ≈ 2Nq).  The ideal variable-σ sampler lands well
    under it.  Calibrated for shape, not for Falcon's security-optimal
    tightness — see DESIGN.md. *)

type fault_hook = attempt:int -> s1:int array -> s2:int array -> int array * int array
(** Injection seam for the chaos harness, sitting where a computation
    glitch would: the hook sees the freshly computed coefficient vectors
    and returns the (possibly corrupted) pair the output checks then see. *)

val sign :
  ?fault_hook:fault_hook ->
  ?check:bool ->
  Keygen.keypair ->
  Base_sampler.t ->
  Ctg_prng.Bitstream.t ->
  msg:bytes ->
  signature
(** [check] (default [true]) enables verify-after-sign: the candidate
    signature is checked against the {e public} key exactly as a verifier
    would (recover [s1] from [s2] via [h], compare, then the norm bound)
    before it is returned.  A signature inconsistent with the verification
    equation — the fingerprint of a glitched FFT/ffSampling computation —
    is discarded and re-tried with a fresh salt, and
    [falcon_sign_fault_rejects_total] is bumped in
    {!Ctg_obs.Registry.default}; the faulty value is {e never} emitted
    (the Lenstra-style RSA-CRT lesson applied to Falcon). *)

val sign_many :
  ?domains:int ->
  ?workforce:Ctg_engine.Workforce.t ->
  ?lanes:int array ->
  ?fault_hook:fault_hook ->
  ?check:bool ->
  Keygen.keypair ->
  make_base:(unit -> Base_sampler.t) ->
  seed:string ->
  msgs:bytes array ->
  signature array
(** Sign independent messages across domains (the Table 1 workload at
    service scale).  Message [i] always draws its salt and ffSampling
    randomness from {!Ctg_engine.Stream_fork} lane [lanes.(i)] of [seed]
    (default lane [i]) and from a fresh [make_base ()] instance, so the
    result array is identical for any [domains] (default
    [Domain.recommended_domain_count ()]) — and, with explicit [lanes],
    independent of how a serving batch was composed.  [workforce] runs the
    fan-out on a persistent {!Ctg_engine.Workforce} (the daemon's batching
    path); without it the call runs on a one-shot team of [domains] (at
    most one per message), or on the calling domain, starting no domain,
    when that is one.  [make_base] must return a fresh, unshared
    sampler on every call — pass e.g.
    [fun () -> Base_sampler.of_instance
       (Ctg_samplers.Sampler_sig.of_bitsliced (Ctgauss.Sampler.clone master))]
    to amortize one compiled program over every message and domain. *)

val signature_norm_sq : int array -> int array -> float
(** ‖(s1, s2)‖² with integer coefficients taken as given. *)

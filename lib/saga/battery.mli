(** SAGA-style statistical acceptance battery for discrete Gaussian
    samplers.

    Four test families over a stream of {e signed} samples from one
    backend at one sigma, all calibrated against the {e exact}
    termination-conditioned law the online monitor uses
    ({!Ctg_assure.Drift.expected_model}):

    - {e moments}: mean, variance, skewness and excess kurtosis, each a
      two-sided z test whose standard error comes from the exact higher
      moments of the law (reducing to the classic [sqrt(6/n)] /
      [sqrt(24/n)] normal approximations when the law is normal);
    - {e chi-square}: Pearson GOF of the magnitude counts against the
      conditioned law, zero-mass overflow bin included — the same
      statistic as one {!Ctg_assure.Drift} window;
    - {e tails}: a hard support check (the conditioned law has no mass
      beyond the matrix support) and a binomial tail-mass check at the
      exact-quantile cutoff;
    - {e autocorrelation}: lag autocorrelations of the signed sequence
      (worst lag reported; lag 63 covers the bitsliced batch width).

    Deterministic: [run]'s sample stream is a pure function of the master
    seed, the sigma and the backend name. *)

type config = {
  samples : int;  (** Draws per verdict; default 200_000. *)
  z_crit : float;  (** Two-sided z bound for moment/tail/lag checks; 3.5. *)
  chi_alpha : float;  (** Chi-square p-value floor; 1e-3. *)
  tail_target : float;  (** Exact tail mass defining the cutoff; 0.02. *)
  lags : int list;  (** Autocorrelation lags; [1;2;3;4;8;63]. *)
}

val default_config : config

type check = {
  family : string;
  name : string;
  value : float;  (** z statistic, p-value or count, per [name]. *)
  bound : float;
  pass : bool;
  detail : string;
}

type verdict = {
  backend : string;
  sigma : string;
  precision : int;
  n_samples : int;
  checks : check list;
  pass : bool;  (** All checks passed. *)
}

type model
(** The exact law of one matrix with its precomputed signed moments —
    build once, evaluate many times (the ratio-attack harness calls
    {!evaluate} at every checkpoint). *)

val model : Ctg_kyao.Matrix.t -> model
val matrix : model -> Ctg_kyao.Matrix.t

val evaluate :
  ?config:config -> model -> backend:string -> samples:int array -> len:int -> verdict
(** Judge the first [len] entries of [samples] (signed draws) against the
    model.  @raise Invalid_argument when [len < 1000]. *)

val run :
  ?config:config ->
  ?bias:(int -> int) ->
  seed:int64 ->
  model ->
  Ctg_samplers.Sampler_sig.instance ->
  verdict
(** Draw [config.samples] signed samples from the instance (stream
    derived from [seed]) and evaluate them.  [bias] corrupts each draw
    before evaluation — the seeded-bias controls that prove each family
    actually fires (e.g. {!Ctg_fault.Plan.value_transform}). *)

val failed_families : verdict -> string list

val verdict_json : verdict -> Ctg_obs.Jsonx.t
val pp_verdict : Format.formatter -> verdict -> unit

(** Constant-time and entropy monitors over batch sampling.

    A constant-time sampler must draw the {e same} number of random bits
    for every batch — for the bitsliced programs that is
    [(num_vars + 1) × 63] bits per 63-sample batch, by construction.  The
    monitor learns the per-batch bit count from the first batch it sees
    and counts every later deviation:

    - a deviation while the sampler took its declared fallback path (the
      probability-bounded resample of unterminated lanes, which never
      fires at Falcon precision) increments [ct_fallback_batches_total];
    - any other deviation is a real constant-time violation and increments
      [ct_violations_total] — the counter CI checks stays 0, surfaced next
      to the [ctcheck]/dudect results.

    The monitor also maintains [entropy_bits_per_sample], the measured
    random-bit cost per delivered sample (the Fast Loaded Dice Roller
    lens on sampler quality; compare against H(D_σ) ≈ log2(σ√(2πe))).

    All counters live in a {!Registry}, labeled by the caller (convention:
    [sampler], [sigma]), so exposition and reset follow the registry. *)

type t

type totals = {
  batches : Registry.counter;
  bits : Registry.counter;
  samples : Registry.counter;
}
(** The running totals the entropy gauge is derived from. *)

val create :
  ?registry:Registry.t -> ?labels:Registry.labels -> ?totals:totals -> unit -> t
(** [registry] defaults to {!Registry.default}.  Without [totals] the
    monitor keeps its own [ct_batches_total], [ct_bits_total] and
    [ct_samples_total].  With [totals] (the engine's metrics, which count
    the same chunks) it exposes those counters under the [ct_*] names and
    never adds to them, so each total is counted once per chunk.
    [entropy_bits_per_sample] is derived from the totals when read. *)

val learn : t -> int -> int
(** [learn t bits]: record [bits] as the expected per-batch draw if none
    is set yet; returns the (possibly just-learned) expectation.  Exactly
    one caller wins a concurrent race; everyone then compares against the
    same expectation. *)

val expected_bits : t -> int
(** 0 until learned. *)

val observe_batch : t -> bits:int -> samples:int -> ?fallback:bool -> unit -> unit
(** Account one batch.  A batch with [fallback:true] counts toward
    [ct_fallback_batches_total] and never teaches the expectation (its bit
    count is data-dependent by design — learning from it would flag every
    normal batch).  Otherwise learns on first call, then counts a
    deviating [bits] as a violation.
    For scalar samplers a "batch" is one sample. *)

val record_chunk :
  t -> batches:int -> bits:int -> samples:int -> deviations:int -> fallbacks:int -> unit
(** Bulk accounting from the engine hot path: per-batch bit checking is
    done locally in the worker with plain integer arithmetic and folded
    into the registry once per chunk ([deviations] excludes the [fallbacks]
    already attributed to the declared non-CT escape).  [batches], [bits]
    and [samples] are ignored when the monitor was created with [totals]:
    their owner has counted them. *)

val violations : t -> int
val fallback_batches : t -> int
val entropy_bits_per_sample : t -> float

(** Instrumentation-overhead benchmark: what does the observability layer
    cost on the batch-sampling hot path?

    Three single-domain fill loops over the same compiled sampler:

    - {e plain} — the uninstrumented loop (what [Pool.run_chunk] did
      before the obs layer existed: draw, blit, repeat);
    - {e metered} — the production loop: per-batch CT bit-checks with
      plain field reads, metrics/ctmon folded into the registry once per
      chunk, tracing compiled in but disabled;
    - {e traced} — the metered loop with span recording enabled.

    The loops run as paired passes — every pass index runs all three
    back-to-back on the same fork lane, with a [Gc.full_major] before
    each timed pass — and each loop reports its {e median} pass time, so
    host-speed noise, stream-dependent fallback work and inherited GC
    debt cancel instead of masquerading as overhead.  The acceptance
    budget is [metered <= plain × (1 + threshold_pct/100)]. *)

type entry = {
  sigma : string;
  precision : int;
  gates : int;
  samples : int;  (** Samples per timing window. *)
  plain_ns : float;  (** ns per sample, uninstrumented loop. *)
  metered_ns : float;  (** ns per sample, metrics + CT monitor. *)
  traced_ns : float;  (** ns per sample, with span recording on. *)
  overhead_pct : float;  (** [(metered - plain) / plain × 100]. *)
  traced_overhead_pct : float;
  ct_violations : int;  (** Must be 0 for the bitsliced samplers. *)
  fallback_batches : int;
  entropy_bits_per_sample : float;
}

val threshold_pct : float
(** Acceptance budget for [overhead_pct]: 2.0. *)

val measure :
  ?samples:int -> ?rounds:int -> ?min_time:float -> sigma:string ->
  precision:int -> tail_cut:int -> unit -> entry
(** [samples] sizes one fill-loop pass (default 63 × 1000); paired
    passes repeat until at least 5 groups have run and [rounds] ×
    [min_time] seconds (defaults 5 × 0.25) have elapsed; each loop
    reports its median pass. *)

val run :
  ?samples:int -> ?rounds:int -> ?min_time:float -> ?set:(string * int) list ->
  unit -> entry list
(** [measure] over [set] (default {!Ctgauss.Sampler.paper_keys}) at tail cut 13. *)

val ok : entry list -> bool
(** Every entry within {!threshold_pct} and zero CT violations. *)

val paired_ns :
  rounds:int ->
  min_time:float ->
  samples:int ->
  (bool * (lane:int -> unit)) array ->
  float array
(** The paired-pass median-of-ratios estimator, exposed for other
    overhead gates (the fault-defense bench reuses it verbatim).  Each
    group runs every loop back-to-back with a [Gc.full_major] before each
    timed pass, handing loops the group's {!Stream_fork} lane index so
    all arms consume the same underlying randomness; loop [i]'s result is
    loop 0's median ns/sample scaled by the median of the within-group
    ratios [t_i / t_0].  The [bool] enables span tracing for that loop. *)

val to_json : entry list -> Ctg_obs.Jsonx.t
val save : string -> entry list -> unit
val pp_entry : Format.formatter -> entry -> unit

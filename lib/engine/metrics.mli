(** Engine observability, backed by the {!Ctg_obs.Registry}.

    Every counter is updated once per chunk (not per sample), so the
    accounting adds nothing measurable to the hot path while still
    reporting the paper's cost model exactly: samples, batches (63-lane
    program runs), random bits consumed, PRNG work units (ChaCha20 blocks /
    Keccak permutations) and total gate evaluations — plus the service-time
    and queue-wait histograms the scheduler view needs.

    [snapshot] reads under the registry's seqlock
    ({!Ctg_obs.Registry.read_consistent}), so a snapshot racing a [reset]
    observes either all pre-reset or all post-reset values — never the
    half-zeroed mix the previous Atomic-per-field implementation could
    return. *)

type t

type snapshot = {
  samples : int;  (** Signed samples delivered. *)
  batches : int;  (** Bitsliced program evaluations (63 lanes each). *)
  bits_consumed : int;  (** Random bits drawn across all lanes. *)
  prng_work : int;  (** Backend work units (blocks / permutations). *)
  gate_evals : int;  (** Boolean gates executed: batches × gate count. *)
  per_domain_samples : int array;
      (** Samples produced by each worker domain — the load-balance view. *)
  fallback_resamples : int;
      (** Lanes rescued by the sampler's declared scalar fallback. *)
  chunk_service : Ctg_obs.Histo.summary;  (** ns per chunk, fill only. *)
  queue_wait : Ctg_obs.Histo.summary;
      (** ns a producer waited to enqueue a chunk (backpressure). *)
  chunk_retries : int;
      (** Chunk attempts repeated after a contained worker exception. *)
  worker_respawns : int;
      (** Crashed worker domains replaced by the pool's supervision. *)
  health_failures : int;
      (** Entropy health-test trips observed by workers (lane errors). *)
  degraded : bool;
      (** The pool is serving from the CT linear-search CDT fallback
          because the compiled sampler failed its load-time self-test. *)
}

val create : domains:int -> ?labels:Ctg_obs.Registry.labels -> unit -> t
(** A fresh metrics set over its own private registry; [labels]
    (convention: [sigma], [sampler]) are stamped on every series. *)

val registry : t -> Ctg_obs.Registry.t
(** The backing registry, for exposition ([/metrics]). *)

val totals : t -> Ctg_obs.Ctmon.totals
(** The batch, bit and sample counters {!record} adds to, for a
    {!Ctg_obs.Ctmon} over the same chunks ([Ctmon.create ~totals]). *)

val record :
  t ->
  domain:int ->
  samples:int ->
  batches:int ->
  bits:int ->
  work:int ->
  gates:int ->
  unit
(** One bulk update per completed chunk, attributed to worker [domain]. *)

val add_fallback : t -> int -> unit
val observe_chunk_service : t -> int -> unit
(** Chunk fill latency in ns. *)

val observe_queue_wait : t -> int -> unit
(** Producer-side enqueue wait in ns. *)

val add_chunk_retry : t -> unit
val add_worker_respawn : t -> unit
val add_health_failure : t -> unit

val set_degraded : t -> bool -> unit
(** Raise/lower the [engine_degraded] gauge (1 = CDT fallback serving). *)

val snapshot : t -> snapshot
(** Torn-read-free consistent view (retries across concurrent resets). *)

val reset : t -> unit

val pp : Format.formatter -> snapshot -> unit
(** Multi-line human dump (the [gauss_gen throughput] metrics block). *)

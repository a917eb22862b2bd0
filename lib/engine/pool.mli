(** Domain-parallel batch sampling over one compiled sampler.

    The software analogue of a hardware design's parallel SamplerZ array:
    the [P] worker domains of one {!Workforce} team share the registry's
    compiled program (each worker index holds a private
    {!Ctgauss.Sampler.clone}) and race for fixed-size {e chunks} of a
    batch job through the team's atomic cursor.  The pool is chunk logic
    on top of that team: chunk bodies, in-place retries, output sinks and
    degraded mode; the calling domain waits or consumes, never fills.

    {b Determinism.}  Chunk [c] of the [j]-th job always draws its
    randomness from {!Stream_fork} lane [lane_base_j + c] and lands at
    offset [c × chunk size] of the output, so the result is a pure function
    of [(seed, sampler, call sequence)] — the same [int array] for 1, 2 or
    8 domains.  Scheduling decides only {e who} computes a chunk, never
    {e what} it contains.  Supervision leans on the same property: a chunk
    retried after a transient fault, or re-run by another domain after a
    worker crash, reproduces its output bit for bit.

    {b Backpressure.}  {!iter_batches} streams chunks through a bounded
    queue: workers block once [2 × domains] chunks are finished but not
    yet consumed, so a slow consumer caps the engine's memory at
    [3 × domains × chunk] samples instead of buffering the whole job.

    {b Supervision.}  A worker exception while filling a chunk is retried
    in place with exponential backoff up to 2 times;
    past that the {e job} fails and {!Chunk_failed} is raised on the
    caller — a failed chunk can never leave {!batch_parallel} or
    {!iter_batches} blocked.  A worker killed at a chunk boundary
    ({!Kill_worker}, the crash model) orphans its chunk for another domain
    and is replaced while the team's budget of [max 4 domains] respawns
    lasts.  With
    [stall_timeout] set, a watchdog bounds how long the caller can wait
    without progress before {!Stalled} is raised.  Counters for all of
    this live in {!Metrics}.

    {b Degradation.}  [create ~self_test:true] (the default) runs the
    {!Selftest} KAT on the compiled program; on failure the pool enters
    degraded mode and serves every request from the constant-time
    linear-search CDT ({!Ctg_samplers.Cdt_samplers.linear_ct}) built from
    the sampler's probability matrix — slower, still constant-time, still
    the right distribution.  Degraded chunks are recorded as declared
    fallbacks by the {!Ctg_obs.Ctmon} monitor (never teaching it a batch
    expectation) and flagged on the [engine_degraded] gauge. *)

type t

(** The bounded producer/consumer chunk queue behind {!iter_batches},
    exposed (like {!Workforce.Workq}) so the ctg_race model checker can
    explore the exact production protocol in bounded harnesses.  Both waits re-check
    [should_abort] on every wakeup, so a failed job can never leave a
    producer or the consumer parked. *)
module Chunkq : sig
  type 'a t

  val create : capacity:int -> 'a t

  val push : 'a t -> should_abort:(unit -> bool) -> 'a -> unit
  (** Block while [capacity] items are in flight, unless aborting. *)

  val pop : 'a t -> should_abort:(unit -> bool) -> 'a option
  (** Block while empty; [None] only when aborting. *)

  val wake : 'a t -> unit
  (** Broadcast so parked producers/consumers re-check [should_abort]. *)
end

exception Kill_worker
(** Raise from a fault hook to simulate a worker-domain crash at a chunk
    boundary: the chunk is orphaned and re-run elsewhere, the domain exits
    and is respawned (budget permitting).  Never retried in place. *)

exception Chunk_failed of { chunk : int; attempts : int; error : exn }
(** A chunk exhausted its retries (or the respawn budget ran out); [error]
    is the last underlying exception, e.g.
    {!Ctg_prng.Health.Entropy_failure}.  Raised by {!batch_parallel} /
    {!iter_batches} on the calling domain. *)

exception Stalled of { waited_ns : int }
(** No chunk completed within [stall_timeout] while the job was
    unfinished — the hung-worker containment signal. *)

type fault_hook = chunk:int -> lane:int -> attempt:int -> unit
(** Called at the start of every chunk attempt (before any randomness is
    drawn).  The injection seam for the chaos harness: raise to fail the
    attempt, raise {!Kill_worker} to crash the worker, sleep to hang it. *)

val create :
  ?domains:int ->
  ?backend:Stream_fork.backend ->
  ?chunk_batches:int ->
  ?rng_of_lane:(int -> Ctg_prng.Bitstream.t) ->
  ?self_test:bool ->
  ?stall_timeout:float ->
  seed:string ->
  Ctgauss.Sampler.t ->
  t
(** Start the pool's {!Workforce} team of [domains] workers (default
    [Domain.recommended_domain_count ()]); [chunk_batches] is the number of
    63-sample program runs per chunk (default 16, i.e. 1008 samples — big
    enough to amortize queue traffic, small enough to balance load).  The
    caller keeps ownership of the sampler; workers only ever touch
    private clones.

    [rng_of_lane] replaces the default {!Stream_fork.bitstream} lane
    factory — the chaos harness wraps the genuine lane stream in a fault
    model here; determinism still holds per lane index.  [self_test]
    (default [true]) KATs the sampler and degrades to the CT CDT on
    failure.  [stall_timeout] (seconds) arms the team's watchdog; unset
    means callers wait indefinitely. *)

val domains : t -> int
val metrics : t -> Metrics.t

val ctmon : t -> Ctg_obs.Ctmon.t
(** The pool's constant-time monitor: workers verify per batch that the
    bit draw matches the learned per-batch count (fallback resamples are
    attributed separately), folding results into the metrics registry once
    per chunk.  [Ctmon.violations] must stay 0 for CT samplers. *)

val chunk_samples : t -> int
(** Samples per full chunk ([chunk_batches × 63]). *)

val degraded : t -> bool
(** [true] when the load-time self-test failed and the pool serves from
    the constant-time CDT fallback. *)

val set_fault_hook : t -> fault_hook option -> unit
(** Install/remove the per-chunk-attempt hook.  Not synchronized with
    running jobs: set it while the pool is idle. *)

type chunk_observer = chunk:int -> lane:int -> int array -> unit
(** Called once per {e successfully} filled chunk with the chunk's signed
    samples (a retried or re-run chunk is observed only on the attempt
    that completes).  Runs on the worker domain that filled the chunk, so
    observers must be thread-safe and must not mutate the array; chunk
    order across domains is nondeterministic, but the multiset of
    [(chunk, lane, samples)] triples per job is not — the hook feeding a
    mergeable sketch therefore yields domain-count-independent state
    ({!Ctg_assure.Drift} relies on this). *)

val add_chunk_observer : t -> chunk_observer -> unit
(** Append an observer.  Like {!set_fault_hook}, set while the pool is
    idle. *)

val fill_chunk :
  metrics:Metrics.t ->
  ctmon:Ctg_obs.Ctmon.t ->
  domain:int ->
  gate_count:int ->
  Ctgauss.Sampler.t ->
  Ctg_prng.Bitstream.t ->
  int array ->
  pos:int ->
  len:int ->
  unit
(** One bitsliced chunk as the workers run it: [len] samples into the
    array from index [pos], batch by batch, each batch classified for
    the CT check (a deviation from the learned bit count, or a declared
    fallback), then the chunk's service time, counters and CT tallies
    recorded once in [metrics] and [ctmon] (counted for [domain]); a
    [ctmon] created over [Metrics.totals metrics] shares the batch, bit
    and sample totals instead of adding them again.
    Exposed so the [bench obs] overhead gate times the production loop.
    @raise Invalid_argument if the range does not fit in the array. *)

val batch_parallel : ?flow:int -> t -> n:int -> int array
(** [n] signed samples, produced in parallel, deterministic in the master
    seed and the sequence of calls (each call consumes fresh lanes).
    [flow] is a trace flow id: when given (and tracing is on), every
    worker chunk span emits a {!Ctg_obs.Trace.flow_step} with that id, so
    an exported trace draws the causal arrows from the submitting span to
    the per-domain chunks.  No effect on the samples produced.
    @raise Invalid_argument when [n < 0] or the pool is shut down.
    @raise Chunk_failed when a chunk fails permanently.
    @raise Stalled when [stall_timeout] elapses without progress. *)

val iter_batches : ?flow:int -> t -> n:int -> (int array -> unit) -> unit
(** Stream the same deterministic output as {!batch_parallel} to [f] chunk
    by chunk, in order, while workers keep producing ahead under the
    bounded-queue backpressure.  [f] runs in the calling domain.  Raises
    like {!batch_parallel}; an exception from [f] itself also fails the
    job (workers unblock) and is re-raised here. *)

val shutdown : t -> unit
(** Join the workers (and watchdog).  Idempotent; subsequent jobs raise. *)

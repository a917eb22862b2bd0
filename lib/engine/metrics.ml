module Registry = Ctg_obs.Registry
module Histo = Ctg_obs.Histo

type t = {
  registry : Registry.t;
  samples : Registry.counter;
  batches : Registry.counter;
  bits_consumed : Registry.counter;
  prng_work : Registry.counter;
  gate_evals : Registry.counter;
  fallback : Registry.counter;
  per_domain : Registry.counter array;
  chunk_service : Registry.histo;
  chunk_retries : Registry.counter;
  worker_respawns : Registry.counter;
  health_failures : Registry.counter;
  degraded : Registry.gauge;
}

type snapshot = {
  samples : int;
  batches : int;
  bits_consumed : int;
  prng_work : int;
  gate_evals : int;
  per_domain_samples : int array;
  fallback_resamples : int;
  chunk_service : Histo.summary;
  queue_wait : Histo.summary;
  chunk_retries : int;
  worker_respawns : int;
  health_failures : int;
  degraded : bool;
}

let create ~domains ?(labels = []) () =
  if domains < 1 then invalid_arg "Metrics.create: domains must be >= 1";
  let registry = Registry.create () in
  {
    registry;
    samples = Registry.counter registry ~labels "engine_samples_total";
    batches = Registry.counter registry ~labels "engine_batches_total";
    bits_consumed = Registry.counter registry ~labels "engine_bits_consumed_total";
    prng_work = Registry.counter registry ~labels "engine_prng_work_total";
    gate_evals = Registry.counter registry ~labels "engine_gate_evals_total";
    fallback = Registry.counter registry ~labels "engine_fallback_resamples_total";
    per_domain =
      Array.init domains (fun i ->
          Registry.counter registry
            ~labels:(("domain", string_of_int i) :: labels)
            "engine_domain_samples_total");
    chunk_service = Registry.histo registry ~labels "engine_chunk_service_ns";
    chunk_retries = Registry.counter registry ~labels "engine_chunk_retries_total";
    worker_respawns =
      Registry.counter registry ~labels "engine_worker_respawns_total";
    health_failures =
      Registry.counter registry ~labels "engine_entropy_health_failures_total";
    degraded = Registry.gauge registry ~labels "engine_degraded";
  }

let registry t = t.registry

let totals (t : t) =
  { Ctg_obs.Ctmon.batches = t.batches; bits = t.bits_consumed; samples = t.samples }

let record (t : t) ~domain ~samples ~batches ~bits ~work ~gates =
  Registry.add t.samples samples;
  Registry.add t.batches batches;
  Registry.add t.bits_consumed bits;
  Registry.add t.prng_work work;
  Registry.add t.gate_evals gates;
  Registry.add t.per_domain.(domain) samples

let add_fallback (t : t) n = if n > 0 then Registry.add t.fallback n
let observe_chunk_service (t : t) ns = Registry.observe t.chunk_service ns
let add_chunk_retry (t : t) = Registry.incr t.chunk_retries
let add_worker_respawn (t : t) = Registry.incr t.worker_respawns
let add_health_failure (t : t) = Registry.incr t.health_failures
let set_degraded (t : t) on = Registry.set_gauge t.degraded (if on then 1.0 else 0.0)

let snapshot (t : t) =
  Registry.read_consistent t.registry (fun () ->
      {
        samples = Registry.value t.samples;
        batches = Registry.value t.batches;
        bits_consumed = Registry.value t.bits_consumed;
        prng_work = Registry.value t.prng_work;
        gate_evals = Registry.value t.gate_evals;
        per_domain_samples = Array.map Registry.value t.per_domain;
        fallback_resamples = Registry.value t.fallback;
        chunk_service = Registry.histo_summary t.chunk_service;
        (* Nothing queues chunks; kept empty for perfbench's reader. *)
        queue_wait = Histo.summary (Histo.create ());
        chunk_retries = Registry.value t.chunk_retries;
        worker_respawns = Registry.value t.worker_respawns;
        health_failures = Registry.value t.health_failures;
        degraded = Registry.gauge_value t.degraded > 0.5;
      })

let reset (t : t) = Registry.reset t.registry

let pp fmt (s : snapshot) =
  Format.fprintf fmt "samples        %d@." s.samples;
  Format.fprintf fmt "batches        %d@." s.batches;
  Format.fprintf fmt "bits consumed  %d" s.bits_consumed;
  if s.samples > 0 then
    Format.fprintf fmt "  (%.1f bits/sample)"
      (float_of_int s.bits_consumed /. float_of_int s.samples);
  Format.fprintf fmt "@.";
  Format.fprintf fmt "prng work      %d@." s.prng_work;
  Format.fprintf fmt "gate evals     %d" s.gate_evals;
  if s.samples > 0 then
    Format.fprintf fmt "  (%.0f gates/sample)"
      (float_of_int s.gate_evals /. float_of_int s.samples);
  Format.fprintf fmt "@.";
  if s.fallback_resamples > 0 then
    Format.fprintf fmt "fallbacks      %d@." s.fallback_resamples;
  if s.chunk_retries > 0 then
    Format.fprintf fmt "chunk retries  %d@." s.chunk_retries;
  if s.worker_respawns > 0 then
    Format.fprintf fmt "respawns       %d@." s.worker_respawns;
  if s.health_failures > 0 then
    Format.fprintf fmt "health fails   %d@." s.health_failures;
  if s.degraded then Format.fprintf fmt "DEGRADED       (CT-CDT fallback)@.";
  if s.chunk_service.Histo.count > 0 then
    Format.fprintf fmt "chunk service  %a@." Histo.pp_summary s.chunk_service;
  Format.fprintf fmt "per-domain     ";
  Array.iteri
    (fun i n -> Format.fprintf fmt "%s%d:%d" (if i = 0 then "" else " ") i n)
    s.per_domain_samples;
  Format.fprintf fmt "@."

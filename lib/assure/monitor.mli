(** The statistical-assurance bundle for one sampler: a {!Drift} monitor
    and the CT monitors of every attached engine pool, rolled into one
    health verdict and the JSON bodies the {!Ctg_net.Http} endpoint
    serves. *)

type t

val create :
  ?config:Drift.config ->
  ?registry:Ctg_obs.Registry.t ->
  ?labels:Ctg_obs.Registry.labels ->
  matrix:Ctg_kyao.Matrix.t ->
  unit ->
  t

val drift : t -> Drift.t

val attach_pool : t -> Ctg_engine.Pool.t -> unit
(** Register a chunk observer on [pool] feeding the drift monitor, and
    include the pool's CT monitor and degradation flag in the verdict.
    Attach while the pool is idle (see
    {!Ctg_engine.Pool.add_chunk_observer}). *)

val add_check : t -> name:string -> (unit -> string option) -> unit
(** Register a custom named probe in the verdict: [probe ()] returns
    [Some reason] while failing, [None] while healthy.  Probes run on
    every verdict/healthz evaluation (keep them cheap and thread-safe; a
    raising probe counts as failing).  The daemon uses this to surface
    its GC pause-budget alarm on [/healthz]. *)

type verdict = Healthy | Failing of string list

val verdict : t -> verdict
(** Healthy iff: no drift window alarm, every attached pool has zero
    CT-monitor violations and is not degraded, and every {!add_check}
    probe returns [None]. *)

val healthy : t -> bool

val failing_monitors : t -> string list
(** Short names of the monitors currently failing, in a fixed order:
    ["drift"], ["ct"], ["degraded"], then failing
    {!add_check} names in registration order.  Empty iff [healthy]. *)

(** [healthz_json] is the [/healthz] body.  On failure it carries, beyond
    the human-readable [failures] strings, the structured
    [failing_monitors] names and the drift monitor's [first_alarm_window]
    so operators can triage a 503 without scraping [/drift.json]. *)
val healthz_json : t -> Ctg_obs.Jsonx.t
val drift_json : t -> Ctg_obs.Jsonx.t

val routes : t -> registry:Ctg_obs.Registry.t -> Ctg_net.Http.route list
(** The three endpoint routes: [/metrics] (Prometheus text from
    [registry]), [/healthz] (verdict JSON, HTTP 503 when failing) and
    [/drift.json] (retained window results).  Handlers are thread-safe and
    run on the {!Ctg_net.Http} acceptor domain. *)

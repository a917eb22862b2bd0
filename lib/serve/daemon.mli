(** The multi-tenant Falcon signing daemon.

    Wires the whole stack into one long-running process: the shared
    {!Ctg_net.Http} server for the request path, a per-tenant {!Keyring},
    a {!Batcher} that coalesces concurrent sign requests into
    {!Ctg_falcon.Sign.sign_many} runs on a persistent
    {!Ctg_engine.Workforce}, and the assurance monitors
    ({!Ctg_assure.Monitor}) fed from {e live} signing traffic — every
    base-sampler draw made while signing streams into the drift
    chi-square, so [/healthz] guards the actual serving path.

    HTTP surface:
    - [POST /v1/sign?tenant=T] (body = message bytes) → JSON with the
      hex-encoded signature, attempt count, lane, and coalesced batch
      size; [429] when the queue sheds, [503] while draining.
    - [GET /v1/pubkey?tenant=T] → hex public key + parameters.
    - [GET /v1/tenants] → tenants with ready keys.
    - [GET /v1/trace?request_id=R] (when [config.trace]) → the Chrome
      trace slice of one request: its request span, the batch span it
      coalesced into, and the per-domain sign span, linked by flow
      events ("ph":"s"/"t"/"f") whose id is the request's lane.  Without
      [request_id], the full buffered trace.  404 when tracing is off or
      the id has aged out of the ring.
    - [GET /metrics], [/healthz], [/drift.json] — from
      {!Ctg_assure.Monitor.routes} over the daemon's registry.

    Every [POST /v1/sign] response carries [X-Request-Id] (adopted from
    the client or generated — see {!Ctg_net.Http.request_id}); the
    latency histogram keeps the ids of its largest observations as
    exemplars.  [/metrics] prints none of them: read them through
    {!Ctg_obs.Registry.exemplars} or {!Ctg_obs.Registry.to_json} on
    {!registry}.

    Determinism: each request gets a {!Ctg_engine.Stream_fork} lane from
    an atomic counter at submit time, so its signature depends only on
    (seed, lane, key, message) — never on batch composition. *)

type config = {
  n : int;  (** Ring degree (power of two ≥ 4); 256/512/1024 = Falcon. *)
  sigma : string;
  precision : int;
  tail_cut : int;
  host : string;
  port : int;  (** 0 picks an ephemeral port (see {!port}). *)
  http_workers : int;
  queue_capacity : int;  (** Bound on queued sign requests; excess sheds. *)
  max_batch : int;
  sign_domains : int option;  (** Workforce size; default [Pool] default. *)
  check : bool;  (** Verify-after-sign inside the batch run. *)
  drift_window : int;
  seed : string;  (** Master signing seed (lanes fork from it). *)
  key_seed : string;  (** Keyring derivation prefix. *)
  trace : bool;
      (** Enable {!Ctg_obs.Trace} at startup and serve [/v1/trace].
          Default off — spans cost one ring write each when on. *)
  rtev : bool;
      (** Consume the Runtime_events ring ({!Ctg_rtev.Rtev}): real
          per-domain GC pause histograms in the registry, a
          [serve_gc_pause_ns] pause-charged split per batch (first
          request id as exemplar), a background poller, and — with
          [trace] — GC pause spans merged into [/v1/trace] slices.
          Default off. *)
  pause_budget_ms : float;
      (** When > 0 (and [rtev]), any single GC pause longer than this
          budget registers a [gc_pause_budget] monitor failure — i.e.
          [/healthz] flips 503 — and bumps
          [gc_pause_budget_breaches_total]. *)
}

val default_config : config
(** [n = 64], σ = 2 at 16-bit precision, queue 64 / batch 16 (a batch is
    cut as soon as the runner is free, with no coalescing timer), port
    8732 on 127.0.0.1 — demo-sized signing on serving-shaped plumbing. *)

val params_of_n : int -> Ctg_falcon.Params.t
(** 256/512/1024 map to the named Falcon levels, anything else to
    {!Ctg_falcon.Params.custom} — the mapping clients need to rebuild
    [params] from the ring degree advertised by [/v1/pubkey]. *)

type t

val create : ?listen:bool -> config -> t
(** Compile (or reuse) the sampler via {!Ctg_engine.Registry.global},
    start monitors, keyring, workforce, batcher — and, when [listen]
    (default), the HTTP server.  [~listen:false] runs the daemon
    in-process for tests: drive {!handler} directly. *)

val handler : t -> Ctg_net.Http.handler
(** The daemon's full HTTP handler (also what the live server runs). *)

val port : t -> int
(** The bound port — the actual one when [config.port = 0]. *)

val registry : t -> Ctg_obs.Registry.t
val monitor : t -> Ctg_assure.Monitor.t

val rtev_active : t -> bool
(** [config.rtev] and the Runtime_events ring actually started. *)

val trace_slice_events :
  rid:string -> Ctg_obs.Trace.event list -> Ctg_obs.Trace.event list option
(** The pure slice filter behind [/v1/trace?request_id=R]: the events
    carrying the request id or riding its lane's flow, plus every GC
    pause span (cat ["gc"], complete) overlapping the slice's wall-clock
    window.  [None] when the id matches nothing buffered. *)

val keyring : t -> Keyring.t
val config : t -> config

val healthy : t -> bool
(** Current {!Ctg_assure.Monitor.verdict}; [/healthz] status mirrors it. *)

val requests : t -> int
(** Requests accepted into the queue (not shed). *)

val batches : t -> int
val batcher_shed : t -> int

val stop : t -> unit
(** Graceful drain, idempotent: stop the HTTP listener (in-flight
    requests finish), drain the batch queue to completion, flush the
    partial drift window, park the workforce. *)

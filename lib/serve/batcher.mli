(** Bounded request-coalescing queue: the batching core of [ctg_serve].

    Concurrent submitters block while one runner domain drains the queue
    in batches of at most [max_batch].  Batching is group commit: an idle
    runner cuts a batch at once from whatever is queued, and requests
    that arrive while a batch runs form the next one, so a lone request
    waits for nothing and a burst coalesces behind the batch in flight.
    Memory is bounded by construction — at most [capacity] queued plus
    [max_batch] in-flight requests; a submit that finds the queue full is
    {e shed} (counted on [serve_shed_total]), never enqueued.

    Registered metrics (when [registry] is given, under [labels]):
    [serve_batch_size] histogram — the observable proof of coalescing —
    plus [serve_shed_total] and the [serve_queue_depth] gauge, and the
    latency split: [serve_queue_wait_ns] (per request, enqueue to batch
    cut — the time spent behind the batch in flight) vs
    [serve_service_ns] (per batch, time inside [run]). *)

type 'res outcome =
  | Done of 'res
  | Shed  (** Queue full (counted), or the batcher is shutting down. *)
  | Failed of exn  (** The batch run raised; nothing was produced. *)

type ('req, 'res) t

val create :
  ?registry:Ctg_obs.Registry.t ->
  ?labels:Ctg_obs.Registry.labels ->
  capacity:int ->
  max_batch:int ->
  run:('req array -> 'res array) ->
  unit ->
  ('req, 'res) t
(** [run] receives each batch in submission order and must return one
    result per request (same order); it runs on the runner domain, which
    the first {!submit} spawns, and may itself fan out (the daemon runs
    [Sign.sign_many] on a {!Ctg_engine.Workforce}). *)

val submit : ('req, 'res) t -> 'req -> 'res outcome
(** Enqueue and block until the batch containing this request completes.
    Thread-safe; called from HTTP worker domains. *)

val queue_depth : ('req, 'res) t -> int
val shed_count : ('req, 'res) t -> int
val batches : ('req, 'res) t -> int
val submitted : ('req, 'res) t -> int
val stopping : ('req, 'res) t -> bool

val shutdown : ('req, 'res) t -> unit
(** Graceful drain: stop accepting (subsequent submits are [Shed]), run
    every queued request to completion in final batches, then join the
    runner (if a submit ever spawned one).  Idempotent. *)

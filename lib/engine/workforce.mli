(** The engine's one team of worker domains: the {!Pool}'s chunk jobs and
    every [Sign.sign_many] fan-out (the daemon's persistent team, or a
    one-shot team for a one-off batch) run on it.

    [domains] worker domains, started with the first job, park between
    jobs, so submitting a job costs one wakeup per worker instead of a
    spawn.  A job is a {!Workq} of
    [n] items and a body called as [body ~worker i] for each item, where
    [worker < domains] is the index of the domain running it (per-worker
    state stays per index).  The submitting caller does not run items: it
    blocks in {!run_workq} until the job completes or fails.

    {b Failures.}  A body exception fails the job; the first failure wins,
    unclaimed items are skipped and {!run_workq} re-raises it on the
    caller, possibly before every worker has left the job.
    {!Kill_worker} is the crash model: the item is orphaned for another
    domain and the worker's domain is replaced under the same index while
    the respawn budget ([max 4 domains] over the team's life) lasts; past
    it the job fails
    with {!Chunk_failed} [{ attempts = 0; error = Kill_worker }].  With
    [stall_timeout] set, a watchdog domain bounds how long {!run_workq}
    waits without an item completing before {!Stalled} is raised.

    One job runs at a time; a second job submitted while one runs
    raises. *)

exception Kill_worker
(** Raised by a body to simulate its worker domain crashing at an item
    boundary. *)

exception Chunk_failed of { chunk : int; attempts : int; error : exn }
(** Item [chunk] failed for good after [attempts] tries, the last with
    [error].  Raised by the pool's chunk bodies once their retries run
    out, and by the team when a killed worker exceeds the respawn
    budget. *)

exception Stalled of { waited_ns : int }
(** No item completed within [stall_timeout] while the job was
    unfinished: the hung-worker containment signal. *)

(** Per-job work accounting: the atomic claim cursor, the orphan re-queue
    for items lost to crashed workers, first-failure-wins abort, and the
    completion wakeup for the submitting caller.  Exposed so the ctg_race
    model checker can explore the exact protocol in bounded harnesses.
    Never takes the team lock; all time stamps are supplied by the
    caller. *)
module Workq : sig
  type t

  val create : total:int -> stamp:int -> t

  val total : t -> int
  val aborted : t -> bool
  val done_count : t -> int

  val claim : t -> int option
  (** Next item to run: orphans first, then the cursor; [None] once the
      job is exhausted or aborted. *)

  val complete : t -> stamp:int -> unit
  (** Mark one item done; the finisher of the last item wakes the
      {!wait}ing caller. *)

  val orphan : t -> int -> unit
  (** Re-queue an item whose worker crashed at an item boundary. *)

  val fail : t -> exn -> unit
  (** Record the first permanent error, set aborted and wake the waiter. *)

  val wake : t -> unit
  (** Watchdog seam: wake the waiter so its [stall] predicate re-runs. *)

  val wait : t -> stall:(unit -> exn option) -> exn option
  (** Park until all items complete or the job fails; [stall] is
      re-evaluated on every wakeup and may fail the job by returning an
      exception.  Returns the failure, if any. *)
end

type t

val create : ?domains:int -> ?stall_timeout:float -> unit -> t
(** A team of [domains] workers (default
    [Domain.recommended_domain_count ()]), whose domains are spawned by
    the first job, plus the watchdog domain, spawned here when
    [stall_timeout] (seconds) is set. *)

val domains : t -> int

val stopped : t -> bool
(** [true] once {!shutdown} has begun. *)

val run_workq :
  t ->
  Workq.t ->
  respawned:(unit -> unit) ->
  (worker:int -> int -> unit) ->
  unit
(** Run a job over the items of a fresh {!Workq} and wait for it.  The
    team completes an item when its body returns and fails the job when
    it raises; the caller waits until every item is done or the job fails
    (failing it with {!Stalled} past the deadline) and re-raises the first
    failure.  [respawned] is called, before the orphan is re-queued, each
    time a killed worker is replaced.
    @raise Invalid_argument after {!shutdown}, or while the previous job
    has items left and has not failed. *)

val run : t -> n:int -> (int -> unit) -> unit
(** {!run_workq} over a job running [f i] for every [i < n]; [f] must
    be safe to run concurrently for distinct [i].  Deterministic in what
    is computed, not in who computes it.
    @raise Invalid_argument when [n < 0], after {!shutdown}, or while
    another job runs. *)

val shutdown : t -> unit
(** Join the workers (and watchdog).  Idempotent; subsequent jobs
    raise. *)

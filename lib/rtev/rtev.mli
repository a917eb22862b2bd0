(** Runtime_events consumer: true per-domain GC pause telemetry.

    OCaml 5's runtime writes phase begin/end events — minor collections,
    major slices, stop-the-world barriers — into a per-domain ring
    buffer.  This layer makes the process consume {e its own} ring
    ([Runtime_events.create_cursor None]).  Only {!poll} reads it (the
    poller domain, {!stop} and explicit calls); no span and no serving
    batch does.  Each poll decodes matched begin/end pairs into pauses
    and feeds:

    - per-domain [gc_pause_ns] / [gc_minor_pause_ns] histograms in an
      {!Obs.Registry}, plus unlabeled aggregates,
    - Chrome-trace GC spans injected into the {!Obs.Trace} stream on a
      dedicated synthetic track per domain ([tid = 1000 + ring]), so a
      request's timeline visibly contains the pauses that hit it,
    - a bounded ledger of the last pauses on the runtime clock, from
      which {!charge} gives a time window the pause time that fell
      inside it, by event time, and
    - a pause budget whose breaches feed the daemon's health monitors.

    {b Pause decoding.}  Runtime phases nest (a stop-the-world section
    contains the minor-collection phases that run inside it).  A {e
    pause} is one top-level runtime-phase span on one ring: depth goes
    0→…→0 between a matched begin/end at depth zero.  The pause is
    classified {e minor} when any minor-heap phase was seen inside it.
    Idle condition waits ([EV_DOMAIN_CONDITION_WAIT]) and [Gc.set] calls
    are top-level runtime phases but not mutator pauses — they are
    excluded.  A lost-events notification (ring overwritten faster than
    we poll) resets that ring's depth stack: a half-observed pause is
    dropped rather than fabricated with a wrong duration, and the lost
    word count is surfaced as [rtev_lost_events_total].

    {b Clocks.}  Runtime_events timestamps are monotonic nanoseconds;
    {!Obs.Clock} is epoch-offset [gettimeofday].  Every poll reads
    [Clock.now_ns], writes a numbered [ctg.sync] custom event and derives
    the offset when that event comes back; the poll's pauses reach the
    trace after it.  The event's timestamp is also the poll's horizon:
    the poll reads every ring after writing it, so every pause that
    ended before it is in the ledger.

    {b Attribution.}  The ring index passed to callbacks is the runtime's
    domain {e slot}, not [Domain.self ()] — slots are reused as domains
    spawn and terminate.  Per-slot attribution is still what matters for
    "which worker ate the pause" questions, and the trace track carries
    the slot id.

    All public functions are thread-safe; a single process-wide consumer
    state sits behind one mutex (polling is naturally serialized — the
    cursor is not thread-safe), and {!charge} takes only a second one. *)

(** The pure event→pause decoder, separated from the cursor plumbing so
    tests can drive it with a synthetic feed ([Runtime_events.Timestamp]
    is abstract — callback arguments cannot be fabricated). *)
module Decode : sig
  type cls =
    | Gc  (** Counts toward pause time; not specifically minor. *)
    | Minor  (** Minor-heap phase: marks the enclosing pause minor. *)
    | Excluded  (** Top-level phase that is not a mutator pause. *)

  type pause = {
    ring : int;  (** Runtime domain slot the pause occurred on. *)
    start_ns : int;  (** Monotonic runtime-clock start. *)
    dur_ns : int;  (** > 0 by construction. *)
    minor : bool;
    phase : string;  (** Top-level phase name, e.g. ["stw_leader"]. *)
  }

  type t

  val create : unit -> t
  val classify : Runtime_events.runtime_phase -> cls

  val on_begin : t -> ring:int -> ts_ns:int -> phase:string -> cls:cls -> unit

  val on_end : t -> ring:int -> ts_ns:int -> pause option
  (** [Some p] exactly when this end closes a top-level, non-excluded
      span of positive duration; unmatched ends (after {!on_lost}) are
      ignored. *)

  val on_lost : t -> ring:int -> unit
  (** Reset [ring]'s depth stack: events were overwritten, so any
      half-observed span can no longer be timed truthfully. *)
end

val start : ?registry:Ctg_obs.Registry.t -> ?trace:bool -> unit -> bool
(** Start the runtime ring (idempotent), create the self cursor, bind
    the metrics [registry] (default {!Obs.Registry.default}) and run a
    first poll to establish the clock offset.  [trace] additionally
    injects GC pause spans into {!Obs.Trace} (they only record while
    tracing is enabled).  Returns [false] — leaving no GC pause signal —
    if the runtime ring cannot be started in this environment. *)

val active : unit -> bool

val poll : unit -> int
(** Drain the ring through the decoder, then run the {!charge}
    continuations whose windows the new horizon has passed; returns the
    number of runtime events consumed.  Cheap when nothing happened.
    No-op ([0]) while inactive. *)

val start_poller : ?interval_s:float -> unit -> unit
(** Spawn a background domain polling every [interval_s] (default 0.05).
    The daemon uses this so pauses reach [/metrics] even when no request
    path polls. *)

val stop : unit -> unit
(** Join the poller (if any) after a final poll, settle every window
    still waiting (from the ledger as it stands), free the cursor and
    pause ring collection.  {!start} can be called again afterwards. *)

val charge : start_ns:int -> end_ns:int -> (int -> unit) -> unit
(** [charge ~start_ns ~end_ns k] registers the window \[[start_ns],
    [end_ns]) on the {!Obs.Clock} timeline and never waits on a poll's
    read.  [k] receives the length of the union of the ledger's pauses
    clipped to the window: between 0 and [end_ns - start_ns], with a
    stop-the-world pause that every ring reports counted once.  [k]
    runs once, on the polling domain under the consumer lock, in the
    first {!poll} whose horizon has passed [end_ns] (before that poll
    returns) or in {!stop}; the window is held in memory until then.
    It must not call {!poll} or {!stop}; an
    exception it raises is dropped.  Not charged: a pause still open
    when that poll starts, one lost to a ring overrun, and one older
    than the ledger's last 16384 intervals.  While the consumer is
    inactive the call does nothing. *)

val pause_count : unit -> int
val minor_pause_count : unit -> int
val total_pause_ns : unit -> int
(** Cumulative pause nanoseconds summed over the rings since {!start}
    (or the last {!reset_stats}).  A stop-the-world pause that k
    domains report counts k times; {!charge} counts it once. *)

val max_pause_ns : unit -> int
val reset_stats : unit -> unit
(** Zero the counters (registry metrics and the decoder state are
    untouched) — used by bench to window per-σ runs. *)

val set_pause_budget_ns : int option -> unit
(** Any single pause longer than the budget bumps
    [gc_pause_budget_breaches_total] and {!budget_breaches}; the daemon
    wires this into a [/healthz] monitor check. *)

val budget_breaches : unit -> int

val suspend_collection : unit -> unit
(** [Runtime_events.pause]: stop the runtime writing to the ring (the
    "off" arm of the overhead bench).  No-op when unavailable. *)

val resume_collection : unit -> unit

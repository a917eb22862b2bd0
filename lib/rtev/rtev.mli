(** Runtime_events consumer: true per-domain GC pause telemetry.

    OCaml 5's runtime writes phase begin/end events — minor collections,
    major slices, stop-the-world barriers — into a per-domain ring
    buffer.  This layer makes the process consume {e its own} ring
    ([Runtime_events.create_cursor None]) and folds matched begin/end
    pairs into the observability stack the rest of the repo already
    speaks:

    - real per-domain [gc_pause_ns] / [gc_minor_pause_ns] histograms in
      an {!Obs.Registry} (plus unlabeled aggregates carrying request-id
      exemplars on the largest pauses),
    - Chrome-trace GC spans injected into the {!Obs.Trace} stream on a
      dedicated synthetic track per domain ([tid = 1000 + ring]), so a
      request's timeline visibly contains the pauses that hit it,
    - a cumulative pause counter that {!Obs.Trace.set_pause_source} uses
      to charge pause time to spans (wall − pause ≈ work), and
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
    {!Obs.Clock} is epoch-offset [gettimeofday].  Every poll writes a
    [ctg.sync] custom event carrying [Clock.now_ns] as payload and
    derives the offset when it comes back — trace injection waits (in a
    pending list) until the first sync event lands.

    {b Attribution.}  The ring index passed to callbacks is the runtime's
    domain {e slot}, not [Domain.self ()] — slots are reused as domains
    spawn and terminate.  Per-slot attribution is still what matters for
    "which worker ate the pause" questions, and the trace track carries
    the slot id.

    All public functions are thread-safe; a single process-wide consumer
    state sits behind one mutex (polling is naturally serialized — the
    cursor is not thread-safe). *)

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
(** Drain the ring through the decoder; returns the number of runtime
    events consumed.  Cheap when nothing happened.  No-op ([0]) while
    inactive. *)

val start_poller : ?interval_s:float -> unit -> unit
(** Spawn a background domain polling every [interval_s] (default 0.05).
    The daemon uses this so pauses reach [/metrics] even when no request
    path polls. *)

val stop : unit -> unit
(** Join the poller (if any) after a final poll, free the cursor and
    pause ring collection.  {!start} can be called again afterwards. *)

val pause_count : unit -> int
val minor_pause_count : unit -> int
val total_pause_ns : unit -> int
(** Cumulative pause nanoseconds across all domains since {!start} (or
    the last {!reset_stats}) — the value behind the trace pause source. *)

val max_pause_ns : unit -> int
val reset_stats : unit -> unit
(** Zero the counters (registry metrics and the decoder state are
    untouched) — used by bench to window per-σ runs. *)

val set_rid_source : (unit -> string option) option -> unit
(** Ask the embedding layer (the daemon) which request id is currently
    in flight; sampled when a pause is observed and attached as the
    exemplar on the aggregate [gc_pause_ns] histogram.  Attribution is
    by poll time, i.e. approximate — the daemon polls at batch
    boundaries to keep the window tight. *)

val set_pause_budget_ns : int option -> unit
(** Any single pause longer than the budget bumps
    [gc_pause_budget_breaches_total] and {!budget_breaches}; the daemon
    wires this into a [/healthz] monitor check. *)

val budget_breaches : unit -> int

val set_pause_observer : (Decode.pause -> unit) option -> unit
(** Extra per-pause tap (called under the consumer lock, after internal
    accounting) — bench uses it to histogram pauses per σ window. *)

val install_trace_pause_source : unit -> unit
(** [Obs.Trace.set_pause_source (Some total-pause-counter)]: make spans
    charge GC pause time (the counter opportunistically polls, so pause
    deltas are visible even without the background poller). *)

val pause_source_value : unit -> int
(** Total pause ns so far.  When the consumer lock is free it first
    reads at most 1024 pending events, so a caller on a hot path waits
    for a bounded slice and the poller reads the rest. *)

val suspend_collection : unit -> unit
(** [Runtime_events.pause]: stop the runtime writing to the ring (the
    "off" arm of the overhead bench).  No-op when unavailable. *)

val resume_collection : unit -> unit

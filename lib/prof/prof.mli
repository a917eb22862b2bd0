(** Allocation/GC profiling over the span tracer.

    {!enable} arms the whole chain: span tracing
    ({!Ctg_obs.Trace.enable}), per-span [Gc.counters] capture
    ({!Ctg_obs.Trace.set_gc_capture}), an observer that aggregates word
    deltas by span label, and a [Gc.create_alarm] pulse that feeds a
    major-cycle cadence histogram.  {!report} then ranks span labels by
    minor words allocated — "which stage of the pipeline allocates" with
    no external tooling.

    Cost model: when profiling is off (or tracing is disabled), the
    instrumented hot paths pay exactly what they paid before — one atomic
    load per {!Ctg_obs.Trace.with_span}.  When on, each span adds two
    [Gc.counters] calls and one mutex-guarded table update; the
    [bench alloc] gate bounds the measured end-to-end overhead at < 3%.

    GC pause accounting: with [enable ~rtev:true], the {!Ctg_rtev}
    consumer is started and installed as the tracer's pause source, so
    every span is charged the real GC pause nanoseconds that landed
    inside it ([pause_ns]; [total_ns - pause_ns] ≈ mutator work time).
    [gc_major_cycle_gap_ns] remains as a {e cadence (fallback)} signal
    for environments where the Runtime_events ring cannot start — it
    measures the gap between consecutive major-cycle completions, not
    pause duration. *)

type row = {
  label : string;  (** Span name ([with_span]'s first argument). *)
  spans : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  total_ns : int;
  pause_ns : int;
      (** GC pause time charged to the label's spans (0 without [rtev]). *)
}

val enable : ?registry:Ctg_obs.Registry.t -> ?rtev:bool -> unit -> unit
(** Idempotent.  With [registry], also registers
    [gc_major_cycle_gap_ns] (histogram, cadence fallback) and
    [gc_major_cycles_total] (counter) and feeds them from the GC alarm.
    With [rtev] (default false), starts the {!Ctg_rtev} consumer against
    the same registry and charges per-span pause time via
    {!Ctg_obs.Trace.set_pause_source}. *)

val disable : unit -> unit
(** Stop capturing (alarm deleted, observer unhooked).  Leaves span
    tracing in whatever state it is — profiling rides on tracing but
    does not own it. *)

val active : unit -> bool

val reset : unit -> unit
(** Drop all aggregated rows. *)

val report : unit -> row list
(** Rows ranked by [minor_words] descending (label as tie-break). *)

val report_json : unit -> Ctg_obs.Jsonx.t
val pp_row : Format.formatter -> row -> unit
val pp_report : Format.formatter -> unit -> unit

val set_alloc_baseline :
  ?labels:Ctg_obs.Registry.labels ->
  registry:Ctg_obs.Registry.t ->
  words_per_sample:float ->
  words_per_signature:float ->
  unit ->
  unit
(** Publish the measured allocation baselines ([alloc_words_per_sample],
    [alloc_words_per_signature] gauges) — what [/metrics] exposes and
    the trend gate tracks via [BENCH_alloc.json]. *)

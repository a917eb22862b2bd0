(** Allocation/GC profiling over the span tracer.

    {!enable} arms the whole chain: span tracing
    ({!Ctg_obs.Trace.enable}), per-span [Gc.counters] capture
    ({!Ctg_obs.Trace.set_gc_capture}) and an observer that aggregates
    word deltas by span label.  {!report} then ranks span labels by
    minor words allocated — "which stage of the pipeline allocates" with
    no external tooling.

    Cost model: when profiling is off (or tracing is disabled), the
    instrumented hot paths pay exactly what they paid before — one atomic
    load per {!Ctg_obs.Trace.with_span}.  When on, each span adds two
    [Gc.counters] calls and one mutex-guarded table update; the
    [bench alloc] gate bounds the measured end-to-end overhead at < 3%.

    GC pause accounting: while the {!Ctg_rtev} consumer is active
    ([enable ~rtev:true] starts it), every span's window goes to
    {!Ctg_rtev.Rtev.charge}, and the GC pause time that fell inside it
    is added to its row's [pause_ns] when a consumer poll passes the
    span's end: poll (or stop) the consumer before {!report}.  A charge
    never exceeds its span, so [pause_ns <= total_ns] and
    [total_ns - pause_ns] ≈ mutator work time.  Runtime_events is the
    only GC signal: if its ring cannot start, [pause_ns] stays 0. *)

type row = {
  label : string;  (** Span name ([with_span]'s first argument). *)
  spans : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  total_ns : int;
  pause_ns : int;
      (** GC pause time charged to the label's spans so far (0 without
          [rtev]); at most [total_ns]. *)
}

val enable : ?registry:Ctg_obs.Registry.t -> ?rtev:bool -> unit -> unit
(** Idempotent.  With [rtev] (default false), starts the {!Ctg_rtev}
    consumer against [registry], so spans are charged pause time. *)

val disable : unit -> unit
(** Stop capturing (observer unhooked).  Leaves span
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

(** Span tracing with per-domain lock-free ring buffers and Chrome
    [trace_event] JSON export.

    A process holds one global recorder, off by default: when disabled,
    {!with_span} costs one atomic load and a closure call, which is why the
    hot paths can stay instrumented unconditionally.  When enabled, each
    domain records into its own fixed-capacity ring (registered once, on
    the domain's first event, under a mutex; every subsequent record is a
    plain single-writer store plus one atomic publish).  Rings overwrite
    their oldest events when full and count the drops — tracing never
    blocks or allocates unboundedly in a worker.

    Exported files load in [chrome://tracing] / Perfetto: spans become
    complete ("ph":"X") events with microsecond [ts]/[dur], the recording
    domain as [tid]; instants become "ph":"i"; {!flow_start} /
    {!flow_step} / {!flow_end} become flow events ("ph":"s"/"t"/"f")
    whose shared [id] draws the causal arrows of one request across
    domains.

    When {!set_gc_capture} is on (the ctg_prof layer), every span also
    samples [Gc.counters] on entry and exit, appends the per-domain
    minor/promoted/major word deltas to its args
    ([alloc_minor_words], ...), and feeds the registered
    {!set_gc_observer} hook — the substrate of the allocation-ranking
    profile report. *)

type phase = Complete | Instant | Flow_start | Flow_step | Flow_end

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_ns : int;
  dur_ns : int;  (** [-1] for an instant event, [0] for flow events. *)
  tid : int;  (** Recording domain id. *)
  id : int;  (** Flow-binding id; [-1] for non-flow events. *)
  args : (string * string) list;
}

(** The single-writer ring protocol, exposed so the ctg_race model
    checker can drive it directly (harness [trace_ring]).

    Two counters close the historical torn-read window on wrap:
    [reserved] is bumped past index [i] {e before} slot [i mod cap] is
    rewritten, [head] after.  A reader gathers \[[head - cap], [head])
    and then loads [reserved]: any gathered index below
    [reserved - cap] may have been overwritten mid-read and is
    discarded as a drop — never misattributed. *)
module Ring : sig
  type 'a t

  val create : int -> 'a t
  (** [create capacity]; capacity must be >= 1. *)

  val capacity : 'a t -> int

  val head : 'a t -> int
  (** Events ever pushed. *)

  val push : 'a t -> 'a -> unit
  (** Owner domain only. *)

  val read : 'a t -> (int * 'a) list * int
  (** Any domain: (oldest-first [(index, value)] list whose attribution
      is certain, dropped-event count). *)

  val reset : 'a t -> unit
end

val enable : ?capacity:int -> unit -> unit
(** Start recording.  [capacity] (default 16384) sizes rings created from
    now on; existing rings keep their size. *)

val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Drop all recorded events and drop counts; rings stay registered. *)

val with_span : ?cat:string -> ?args:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** Time [f] and record one complete event (also on exception).  [args] is
    evaluated only when tracing is enabled, after [f] returns — so it can
    report results. *)

val instant : ?cat:string -> ?args:(unit -> (string * string) list) -> string -> unit

val flow_start :
  ?cat:string -> ?args:(unit -> (string * string) list) -> id:int -> string -> unit
(** Begin a causal flow.  Emit inside the [with_span] thunk whose slice
    the arrow should leave from; [cat] defaults to ["flow"].  Chrome
    chains flow events sharing (name, cat, [id]). *)

val flow_step :
  ?cat:string -> ?args:(unit -> (string * string) list) -> id:int -> string -> unit
(** An intermediate hop of the flow (e.g. the coalesced batch span). *)

val flow_end :
  ?cat:string -> ?args:(unit -> (string * string) list) -> id:int -> string -> unit
(** Terminate the flow; binds to the {e enclosing} slice ([bp:"e"]). *)

val set_gc_capture : bool -> unit
(** Capture per-span [Gc.counters] word deltas (only while tracing is
    enabled; the disabled fast path is unchanged).  Off by default. *)

type gc_observer =
  name:string -> minor:float -> promoted:float -> major:float ->
  start_ns:int -> dur_ns:int -> unit

val set_gc_observer : gc_observer option -> unit
(** Hook fed every gc-captured span completion (on the recording domain;
    implementations must be thread-safe).  Installed by [Ctg_prof].
    The span covers \[[start_ns], [start_ns + dur_ns]) on {!Clock}, the
    window [Ctg_prof] has [Ctg_rtev] charge GC pause time to. *)

val inject : event -> unit
(** Push a fully-specified event into the calling domain's ring (no-op
    while tracing is disabled).  Used by the rtev poller to merge GC
    pause spans — recorded on their synthetic per-domain [tid] track —
    into the same trace stream as the request flows. *)

val events : unit -> event list
(** Everything currently buffered, sorted by [(ts_ns, tid, name)]. *)

val dropped : unit -> int
(** Events lost to ring overwrite since the last {!reset}. *)

val export : unit -> Jsonx.t
(** The Chrome trace object:
    [{"traceEvents": [...], "displayTimeUnit": "ms", "ctg_dropped_events": n}]. *)

val export_events : ?dropped:int -> event list -> Jsonx.t
(** {!export} over an explicit event subset (sorted the same way) — what
    the daemon's per-request [/v1/trace] slice uses. *)

val write : string -> unit
(** [write path] saves {!export} (compact JSON) to [path]. *)

(** Named counters, gauges and histograms labeled by small string sets
    (the repo's convention: [sigma], [sampler], [domain]), with
    deterministic text and JSON exposition.

    {b Hot-path cost.}  A handle ([counter]/[gauge]/[histo]) is looked up
    once and then updated lock-free (counters, gauges) or under a
    per-histogram mutex (histograms, which the engine only touches once
    per chunk).

    {b Torn reads.}  [reset] swaps every metric to a fresh cell inside a
    seqlock generation window ([gen] odd while swapping), and
    {!read_consistent} retries its thunk until the generation is even and
    unchanged — so a snapshot observes either all pre-reset or all
    post-reset values, never a half-zeroed mix.  Updates that race a reset
    may land in a discarded cell (the same drop semantics the old
    [Engine.Metrics.reset] had); what is fixed is that no {e reader} can
    observe a torn state. *)

type t

type labels = (string * string) list
(** Label pairs; canonicalized (sorted by key) on handle creation.
    Duplicate keys are rejected. *)

type counter
type gauge
type histo

val create : unit -> t

val default : t
(** Process-wide registry for metrics not owned by a specific component
    instance (engine-registry cache traffic, Falcon sign stage latencies). *)

val counter : t -> ?labels:labels -> string -> counter
(** Find-or-create; the same [(name, labels)] always yields the same
    handle.  @raise Invalid_argument if [name] exists with another kind. *)

val alias_counter : t -> ?labels:labels -> string -> counter -> unit
(** Also expose [c] under [(name, labels)]: one cell, two series, so a
    total that two components report is counted once.
    @raise Invalid_argument if [(name, labels)] holds another counter. *)

val add : counter -> int -> unit
val incr : counter -> unit
val value : counter -> int

val gauge : t -> ?labels:labels -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val derived_gauge : t -> ?labels:labels -> string -> (unit -> float) -> unit
(** A gauge computed by [f] each time it is exposed, for a value derived
    from other metrics (a ratio of two counters), so the hot path never
    updates it.  [reset] leaves it alone.  Find-or-create like {!gauge}:
    an existing [(name, labels)] keeps its function. *)

val histo : t -> ?labels:labels -> string -> histo
val observe : histo -> int -> unit
val histo_summary : histo -> Histo.summary

val observe_exemplar : histo -> int -> string -> unit
(** [observe_exemplar h v id]: {!observe} plus exemplar retention — the
    ids attached to the largest observed values (at most 4, value-
    descending, newest first on ties) survive until the next reset.  The
    serving path passes the request id, which is what links a latency
    outlier in the exposition to its [/v1/trace] slice.  An empty [id]
    degrades to a plain {!observe}. *)

val exemplars : histo -> (int * string) list
(** Current [(value, id)] exemplars, value-descending.  Also exposed in
    {!to_json} as the histogram's ["exemplars"] list (the Prometheus text
    format predates exemplars, so {!expose_text} is unchanged). *)

val reset : t -> unit
(** Zero every metric (gauges to 0, histograms to empty), atomically with
    respect to {!read_consistent} readers. *)

val generation : t -> int
(** Completed resets so far. *)

val read_consistent : t -> (unit -> 'a) -> 'a
(** Run a read-only thunk, retrying until no reset overlapped it. *)

val expose_text : t -> string
(** Prometheus-flavoured deterministic text: metrics sorted by name then
    labels, one [# TYPE] comment per name; histograms expand to
    [_count]/[_sum]/[_min]/[_max]/[_p50]/[_p90]/[_p99] series. *)

val to_json : t -> Jsonx.t
(** [{"metrics": [{"name", "type", "labels", "value" | "histogram"}...]}],
    same ordering as {!expose_text}. *)

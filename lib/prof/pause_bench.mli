(** GC-pause baselines per σ workload and the rtev always-on overhead
    gate — the numbers committed as [BENCH_pauses.json] and watched by
    the {!Ctg_assure.Trend} 25% gate (the [_ns]-suffixed quantiles and
    per-sample timings gate; [pause_max]/[total_pause] are advisory, a
    single compaction dominates them).

    Each σ window repeats the single-domain fill loop until at least
    [min_pauses] real pauses were decoded (fresh fork lane per rep),
    then forces one [Gc.compact] so even allocation-light σ report a
    deterministic stop-the-world pause.  The overhead gate pairs the
    fill with ring collection suspended against ring-live-plus-poll
    using {!Ctg_engine.Obs_bench.paired_ns}; the delta must stay under
    {!threshold_pct}. *)

type entry = {
  sigma : string;
  precision : int;
  samples : int;
  reps : int;
  pauses : int;
  minor_pauses : int;
  pause_p50_ns : int;
  pause_p99_ns : int;
  pause_max : int;
  total_pause : int;
  pause_pct : float;
  plain_ns : float;
  rtev_ns : float;
  rtev_overhead_pct : float;
}

val threshold_pct : float
(** 3.0 — same budget as the profiling-overhead gate. *)

val measure :
  ?samples:int ->
  ?min_pauses:int ->
  ?max_reps:int ->
  ?rounds:int ->
  ?min_time:float ->
  sigma:string ->
  precision:int ->
  tail_cut:int ->
  unit ->
  entry
(** Requires an active {!Ctg_rtev.Rtev} consumer (see {!run}). *)

val run :
  ?samples:int ->
  ?min_pauses:int ->
  ?max_reps:int ->
  ?rounds:int ->
  ?min_time:float ->
  ?set:(string * int) list ->
  unit ->
  entry list option
(** Starts the rtev consumer and measures the set; [None] when the
    Runtime_events ring cannot be started in this environment. *)

val ok : entry list -> bool
(** Every entry saw at least one pause and passed the overhead gate. *)

val to_json : ?daemon:Ctg_obs.Jsonx.t -> entry list -> Ctg_obs.Jsonx.t
(** [daemon] is the daemon-under-load pause row assembled by [bench]
    (it needs the serving stack, which this library cannot depend on). *)

val save : ?daemon:Ctg_obs.Jsonx.t -> string -> entry list -> unit
val pp_entry : Format.formatter -> entry -> unit

(** Drift-monitor overhead gate: what does always-on assurance cost on
    the batch fill loop?

    Two arms, timed with the paired-pass median-of-ratios estimator
    {!Ctg_engine.Obs_bench.paired_ns} (same lane per group, GC normalized):
    the plain fill loop, and the same loop feeding the drift monitor one
    chunk slice at a time the way the pool's chunk observer does —
    including any chi-square window evaluations that land inside a pass.
    The acceptance budget is [monitored <= plain × 1.03], committed as
    [BENCH_assure.json] and re-checked by [bench assure] in CI. *)

type entry = {
  sigma : string;
  precision : int;
  gates : int;
  samples : int;  (** Samples per timing pass. *)
  plain_ns : float;  (** ns per sample, bare fill loop. *)
  monitored_ns : float;  (** ns per sample, with the drift monitor fed. *)
  overhead_pct : float;  (** [(monitored - plain) / plain × 100]. *)
  windows : int;  (** Drift windows evaluated across all passes. *)
  alarms : int;  (** Must be 0 — the measured streams are clean. *)
}

val threshold_pct : float
(** Acceptance budget for [overhead_pct]: 3.0 (the issue's always-on
    ceiling; looser than the obs layer's 2% because the monitor adds a
    mutexed per-chunk fold on top). *)

val measure :
  ?samples:int -> ?rounds:int -> ?min_time:float -> sigma:string ->
  precision:int -> tail_cut:int -> unit -> entry

val run :
  ?samples:int -> ?rounds:int -> ?min_time:float ->
  ?set:(string * int) list -> unit -> entry list

val ok : entry list -> bool
(** Every entry within budget and alarm-free. *)

val to_json : entry list -> Ctg_obs.Jsonx.t
val save : string -> entry list -> unit
val pp_entry : Format.formatter -> entry -> unit

(** Overhead gate for the always-on fault defenses.

    Graceful degradation is free until it triggers and the self-test KAT
    is a one-time load cost, but two defenses sit on hot paths forever:
    the SP 800-90B entropy health tests (every PRNG byte) and
    verify-after-sign (every signature).  This bench prices both with the
    same paired-pass median-of-ratios estimator as the obs bench
    ({!Ctg_engine.Obs_bench.paired_ns}) — arms differ {e only} in the
    defense, share each group's fork lane, and a [Gc.full_major] precedes
    every timed pass — and gates the result at {!threshold_pct}. *)

type entry = {
  defense : string;  (** ["entropy-health"] or ["verify-after-sign"]. *)
  sigma : string;  (** ["-"] for the signing entry. *)
  samples : int;  (** Ops per timing window (samples, or signatures). *)
  plain_ns : float;  (** ns/op with the defense off. *)
  hardened_ns : float;  (** ns/op with the defense on. *)
  overhead_pct : float;
}

val threshold_pct : float
(** Acceptance budget: 3.0 (the obs layer's 2% gate plus one point —
    the health tests touch every random byte, not once per chunk). *)

val measure_health :
  ?samples:int ->
  ?rounds:int ->
  ?min_time:float ->
  sigma:string ->
  precision:int ->
  tail_cut:int ->
  unit ->
  entry

val measure_sign :
  ?signatures:int -> ?rounds:int -> ?min_time:float -> unit -> entry

val run :
  ?samples:int ->
  ?rounds:int ->
  ?min_time:float ->
  ?set:(string * int) list ->
  unit ->
  entry list
(** {!measure_health} over [set] (default {!Ctgauss.Sampler.paper_keys}, tail cut 13)
    plus one {!measure_sign} entry. *)

val ok : entry list -> bool
val to_json : entry list -> Ctg_obs.Jsonx.t
val save : string -> entry list -> unit
val pp_entry : Format.formatter -> entry -> unit

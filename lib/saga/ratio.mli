(** The adversarial crossover experiment: does a monitor alarm before a
    Ratio-attack-style key-recovery estimator gets signal from a biased
    sampler?

    For each bias severity (center shift, variance deflation, stuck PRNG
    bits — built from the {!Ctg_fault.Plan} DSL), the harness runs the
    real Falcon signing pipeline with the faulted base sampler and races
    two observers over the same signature stream:

    - the {e defense}: the online {!Ctg_assure.Drift} monitor fed from
      the base-draw tap, and the {!Battery} re-evaluated at every
      checkpoint on the accumulated draws;
    - the {e attack}: a first-moment estimator correlating the mean
      signature vector against the secret-key template the mean shift
      projects onto, plus a second-moment estimator correlating the
      cross-correlation [s1 * adj(s2)] (minus a clean-run baseline the
      attacker is granted) against the key Gram template.

    A severity's row records the first signature count at which each
    side fires; the experiment passes only if {e no} severity lets the
    attack reach signal at or before the earliest monitor alarm, the
    clean control stays quiet on both sides, and at least one severity
    gives the attack genuine signal (so the race is not vacuous).

    Everything — key, salts, fault draws, battery stream — derives from
    one master seed (same contract as [ctg_chaos]). *)

type fault = Value of Ctg_fault.Plan.value_fault | Rng of Ctg_fault.Plan.rng_fault

type severity = { label : string; fault : fault }

type config = {
  n : int;  (** Ring degree; 64. *)
  sigma : string;
  precision : int;
  tail_cut : int;
  budget : int;  (** Signatures per severity; 2048 (smoke 512). *)
  check_every : int;  (** Checkpoint stride in signatures; 16. *)
  drift_window : int;  (** Drift window in base draws; 2048. *)
  attack_z : float;  (** Key-correlation detection threshold; 4.0. *)
  battery : Battery.config;  (** Widened for sequential use. *)
  severities : severity list;
}

val default_config : config
val smoke_config : config

type row = {
  label : string;
  fault_name : string;
  attack_sigs : int option;
  attack_z_final : float;
  drift_sigs : int option;
  battery_sigs : int option;
  battery_families : string list;
  monitor_sigs : int option;
  winner : string;
  attack_wins_first : bool;
}

type report = {
  seed : int64;
  n : int;
  sigma : string;
  precision : int;
  budget : int;
  check_every : int;
  drift_window : int;
  attack_threshold : float;
  clean_attack_z : float;
  clean_drift_alarms : int;
  clean_battery_pass : bool;
  attack_signals : int;
  rows : row list;
  ok : bool;
}

val run : ?config:config -> seed:int64 -> unit -> report

val to_json : report -> Ctg_obs.Jsonx.t
val pp_row : Format.formatter -> row -> unit
val pp_report : Format.formatter -> report -> unit

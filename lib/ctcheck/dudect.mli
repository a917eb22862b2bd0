(** dudect-style leakage assessment (Reparaz, Balasch, Verbauwhede, DATE
    2017) — "dude, is my code constant time?", the tool the paper uses in
    Sec. 5.2 to validate its sampler.

    Two input classes (fix vs. random) are interleaved randomly and a
    Welch t-test compares their measurement distributions.  Because OCaml's
    GC makes wall-clock noisy, the measurements are the deterministic work
    counters every sampler exposes, which give an exact witness; see
    DESIGN.md. *)

type clazz = Fix | Random

type config = {
  measurements : int;  (** per class, default 50_000 *)
  threshold : float;  (** |t| above this flags a leak; dudect uses 4.5 *)
}

val default_config : config

type report = {
  t_statistic : float;
  leaky : bool;
  samples_per_class : int;
  mean_fix : float;
  mean_random : float;
}

(** {1 Incremental accumulator (Ops-counter mode)}

    The streaming form of the test: classes are drawn one at a time from
    the accumulator's own seeded Splitmix stream and measurements are
    folded into per-class Welford moments as they arrive, so a long-running
    assessor ({!Ctg_assure.Leak}) can interleave probe batches with real
    work and read the running statistic at any point, in O(1) memory.

    Determinism: a whole run is a pure function of [(seed, config,
    measure)] — feeding the same deterministic measure twice from the same
    seed produces {e bit-identical} reports (same class sequence, same
    Welford fold order).  No cropping is applied: Ops-counter measurements
    have no GC/interrupt outliers to tame. *)

type acc

val acc : ?config:config -> ?seed:int64 -> unit -> acc
(** Fresh accumulator; [seed] (default [0x0DDC0FFEE]) drives the class
    interleaving. *)

val acc_next_class : acc -> clazz
(** Draw the next class from the interleaving stream (what {!acc_step}
    measures next). *)

val acc_step : acc -> (clazz -> float) -> unit
(** [acc_next_class] + measure + fold the measurement into its class
    moments, in one call. *)

val acc_count : acc -> int
(** Total measurements folded so far (both classes). *)

val acc_report : acc -> report
(** The running Welch verdict; cheap, callable after every step. *)

(** {1 One-shot runs} *)

val test_ops : ?config:config -> (clazz -> int) -> report
(** [test_ops f]: [f clazz] performs one operation of the given input class
    and returns its deterministic work count.  Runs [2 × measurements]
    steps of a fresh default-seeded accumulator. *)

val pp_report : Format.formatter -> report -> unit

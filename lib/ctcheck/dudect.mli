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

val test_ops : ?config:config -> (clazz -> int) -> report
(** [test_ops f]: [f clazz] performs one operation of the given input class
    and returns its deterministic work count.  Runs [2 × measurements]
    steps, each class drawn from a fixed-seed Splitmix stream, and folds
    the counts into per-class Welford moments in feed order: the report
    is a pure function of [(config, f)], bit-identical across runs of the
    same deterministic [f]. *)

val pp_report : Format.formatter -> report -> unit

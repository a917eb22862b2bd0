(** The overhead-gate harness: how every always-on layer is priced as a
    share of the fill loop, and served signing as a multiple of direct
    signing.

    One estimator (paired passes, median of ratios), one retry rule
    ({!converge}), one entry shape, one JSON writer and one pass/fail
    check serve every gate; a gate itself is a {!row} (the rows are in
    {!Rows}).  A row yields one {!case} per measured configuration
    (usually one per σ key): a baseline arm, the arms timed against it
    (the first is gated), and the entry fields it reads before and after
    timing.  The gate passes when every entry's gated overhead is
    strictly below the row's threshold and every {!row.checks}
    predicate holds. *)

module Jsonx = Ctg_obs.Jsonx

val paired_ns :
  rounds:int ->
  min_time:float ->
  samples:int ->
  (bool * (lane:int -> unit)) array ->
  float array array
(** The paired passes.  Returns, per group in order, each loop's ns per
    op ([samples] ops per pass); groups repeat until at least 5 ran and
    [rounds × min_time] s elapsed.  A loop's [bool] turns span tracing
    on while it runs.

    A 2% budget is far below the noise floor of a shared host, where
    single timing windows swing by ±20%, so block timing (all plain
    windows, then all metered ones) would measure the neighbours:
    - {e pairing}: a group runs every loop back to back on the same
      lane (the group index; a loop builds its own stream from it, so
      arms that differ in stream construction still consume the same
      lane), so stream-dependent work cancels and adjacent-in-time
      noise hits the loops alike; the first loop rotates per group;
    - {e GC normalisation}: a [Gc.full_major] before every pass zeroes
      inherited collector debt, which otherwise showed as a +12% trend
      on a loop timed later in the sequence;
    - {e median of ratios} ({!estimate}): within a group, [loop_i /
      loop_0] compares passes milliseconds apart and stays stable while
      the host's absolute speed swings by ±30%. *)

val quantile : float array -> float -> float
(** Linear-interpolated quantile; [quantile a 0.5] is the median. *)

val estimate : float array array -> float array
(** Loop 0's median ns per op over {!paired_ns} groups, and for every
    other loop that times its median within-group ratio to loop 0. *)

val converge :
  threshold_pct:float -> attempts:int -> (int -> float array) -> float array
(** The retry rule.  [one k] is the [k]-th estimate (callers scale its
    time budget by [k]); the overhead of an estimate [t] is
    [(t.(1) − t.(0)) / t.(0)] in percent.  Host noise only adds to the
    true cost, so the lowest-overhead estimate is kept: estimates are
    taken for [k = 1, 2, …] until the best one is below
    [0.75 × threshold_pct] or [attempts] estimates were taken. *)

type arm = {
  ns : string;  (** Entry field for this arm's ns per op. *)
  pct : string;  (** Entry field for its overhead over the baseline. *)
  traced : bool;  (** Span tracing on while this arm runs. *)
  increment : bool;
      (** [run] is only the work this arm adds to a baseline pass, for
          work below the baseline's pass-to-pass noise: its overhead is
          the median ratio of [run] to the baseline, its ns the sum. *)
  run : lane:int -> unit;  (** One pass over the group's lane. *)
}

type case = {
  head : (string * Jsonx.t) list;
      (** Leading entry fields: identity and anything measured before
          timing. *)
  ops : int;  (** Operations per pass (samples or signatures). *)
  base : string * (lane:int -> unit);
      (** The baseline arm: its ns field and one pass. *)
  arms : arm list;  (** Non-empty; the first is the gated arm. *)
  tail : unit -> (string * Jsonx.t) list;
      (** Called once after timing: trailing entry fields, and where the
          setup changed global state (profiling, the event ring, a
          daemon), its restoration.  Also called, its fields dropped,
          when a pass raises; the exception then propagates. *)
}

type sizes = {
  set : (string * int) list;  (** σ keys measured. *)
  samples : int;  (** Samples per timed pass. *)
  rounds : int;
  min_time : float;  (** Estimate [k] runs for [rounds × min_time × k] s. *)
  smoke : bool;  (** Selects a row's smaller secondary windows. *)
}

type row = {
  name : string;
      (** The [bench] subcommand; the report goes to
          [BENCH_<name>[_smoke].json]. *)
  benchmark : string;  (** The report's ["benchmark"] field. *)
  threshold_pct : float;
  attempts : int;  (** The retry cap of {!converge}. *)
  smoke_set : (string * int) list;  (** σ keys of a [--smoke] run. *)
  checks : (string * (float -> bool)) list;
      (** Extra pass conditions on numeric entry fields; a [Bool] field
          reads as 1 or 0. *)
  available : unit -> bool;
      (** Starts what the row needs; [false] skips the gate. *)
  cases : sizes -> (unit -> case) list;
      (** Each thunk sets one case up when the harness reaches it. *)
}

val sizes : smoke:bool -> row -> sizes
(** Full run: {!Ctgauss.Sampler.paper_keys}, 63 × 1000 samples, 5 rounds
    of 0.4 s; [--smoke]: the row's {!row.smoke_set}, 63 × 400 samples,
    3 rounds of 1 s. *)

val file : smoke:bool -> row -> string

type entry = {
  fields : (string * Jsonx.t) list;  (** In report order. *)
  ok : bool;
}

type report = { row : row; entries : entry list }

val measure : row -> sizes -> report option
(** [None] when the row is not {!row.available}. *)

val ok : report -> bool
val save : string -> report -> unit
val pp_entry : Format.formatter -> entry -> unit
(** One console line: pass/fail, then the entry as compact JSON. *)

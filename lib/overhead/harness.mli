(** The overhead-gate harness: how every always-on layer is priced as a
    share of the fill loop.

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
          setup changed global state (profiling, the event ring), its
          restoration. *)
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
      (** Extra pass conditions on numeric entry fields. *)
  available : unit -> bool;
      (** Starts what the row needs; [false] skips the gate. *)
  cases : sizes -> (unit -> case) list;
      (** Each thunk sets one case up when the harness reaches it. *)
  extras : unit -> (string * Jsonx.t) list;
      (** Top-level report fields measured after the entries. *)
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

type report = { row : row; entries : entry list; extras : (string * Jsonx.t) list }

val measure : row -> sizes -> report option
(** [None] when the row is not {!row.available}. *)

val ok : report -> bool
val save : string -> report -> unit
val pp_entry : Format.formatter -> entry -> unit
(** One console line: pass/fail, then the entry as compact JSON. *)

(** Allocation baselines + profiling-overhead gate (the numbers behind
    [BENCH_alloc.json]).

    Per (sigma, precision): words allocated per signed sample by the
    single-domain batch fill loop, words per [Falcon.Sign.sign] call,
    and the paired-pass timing of the fill loop with the full profiling
    arm on vs off.  Single-domain throughout because [Gc.counters] is
    per-domain — a pool fan-out would silently under-count.

    The acceptance budget is [prof_overhead_pct < threshold_pct] (3%):
    profiling you can leave on while measuring. *)

type entry = {
  sigma : string;
  precision : int;
  samples : int;  (** Samples per timing/alloc window. *)
  msgs : int;  (** Signatures in the per-signature measurement. *)
  alloc_words_per_sample : float;
  alloc_words_per_signature : float;
  plain_ns : float;  (** ns/sample, profiling off. *)
  prof_ns : float;  (** ns/sample, tracing + Gc capture + observer on. *)
  prof_overhead_pct : float;
}

val threshold_pct : float
(** 3.0 — looser than the 2% metered-obs budget: the profiling arm adds
    two [Gc.counters] calls and a ring write per span, and is opt-in. *)

val measure :
  ?samples:int -> ?msgs:int -> ?rounds:int -> ?min_time:float ->
  sigma:string -> precision:int -> tail_cut:int -> unit -> entry
(** Defaults: 63 × 1000 samples per window, 16 signatures, paired passes
    until 5 groups and [rounds × min_time] (5 × 0.4 s) elapse.  Restores
    the tracer's enabled state; leaves {!Prof} disabled. *)

val run :
  ?samples:int -> ?msgs:int -> ?rounds:int -> ?min_time:float ->
  ?set:(string * int) list -> unit -> entry list

val ok : entry list -> bool
(** Every entry under {!threshold_pct} with non-negative alloc counts. *)

val to_json : entry list -> Ctg_obs.Jsonx.t
val save : string -> entry list -> unit
val pp_entry : Format.formatter -> entry -> unit

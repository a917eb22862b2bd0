(** Process-relative timestamps for spans and latency histograms.

    OCaml's [unix] library binds no [clock_gettime], so the observability
    layer uses [Unix.gettimeofday] anchored at module load as a monotonic
    proxy — the same policy every timing loop in [bench] already follows.
    An NTP step mid-span would skew one measurement; the per-chunk /
    per-stage granularity of the recorders makes that an accepted risk
    (DESIGN.md §8). *)

val now_ns : unit -> int
(** Nanoseconds since the process loaded this module.  Fits an OCaml int
    for ~292 years of uptime. *)

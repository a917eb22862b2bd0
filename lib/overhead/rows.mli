(** The overhead gates run by [bench obs|alloc|fault|assure|saga|pauses], one
    {!Harness.row} each:

    - [obs] (2%): metrics + CT monitor per chunk on the fill loop, with a
      reported but ungated traced arm; no CT violation;
    - [alloc] (3%): the profiling arm (tracing + per-span Gc capture);
      also words per sample and per signature, which must be ≥ 0;
    - [fault] (3%): SP 800-90B health tests per σ, plus verify-after-sign
      on a small ring;
    - [assure] (3%, up to 6 estimates): the drift monitor fed per chunk;
      no alarm on the clean streams;
    - [saga] (25%): one full acceptance-battery evaluation, timed as an
      increment over a CDT linear-scan signed draw of [samples / ⌈σ⌉]
      (at least 2520), always at σ 1, 2, 6.15543 and 215, precision 16;
      the timed evaluations' verdict (on lane 0's draw) must pass;
    - [pauses] (3%): the rtev ring live and polled against suspended,
      after a per-σ GC pause window that must see a pause; the report
      adds a [daemon] object (the signing daemon's pause split under
      load).  Skipped when the Runtime_events ring cannot start.

    Seeds are [<gate>-bench-<σ>] ([pause-bench-<σ>] for [pauses],
    [saga-bench-<σ>-<lane>] for [saga]). *)

val obs : Harness.row
val alloc : Harness.row
val fault : Harness.row
val assure : Harness.row
val saga : Harness.row
val pauses : Harness.row

val all : Harness.row list
val find : string -> Harness.row option

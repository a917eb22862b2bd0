(** The overhead gates run by
    [bench obs|alloc|fault|assure|saga|pauses|serve], one {!Harness.row}
    each:

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
      after a per-σ GC pause window that must see a pause.  Skipped when
      the Runtime_events ring cannot start;
    - [serve] (2400%, i.e. served under 25× direct): 3 tenants × 12
      ([--smoke]) or 24 sign requests through an in-process daemon
      (n = 16, σ = 2/16, batches of at most 8, rtev on) against a direct
      [sign_many ~check:true] of the same messages; the served requests'
      p99 (nearest rank per timed pass, the worst pass reported: a
      pass's slowest request) must be ≤ 250 ms, the mean batch > 1,
      nothing shed, the monitor healthy.  The tail adds the daemon's
      pause split.

    Seeds are [<gate>-bench-<σ>] ([pause-bench-<σ>] for [pauses],
    [saga-bench-<σ>-<lane>] for [saga], [serve-bench] and
    [serve-bench-key] for [serve]). *)

val obs : Harness.row
val alloc : Harness.row
val fault : Harness.row
val assure : Harness.row
val saga : Harness.row
val pauses : Harness.row
val serve : Harness.row

val load :
  Ctg_serve.Daemon.t -> tenants:string array -> per_tenant:int -> lane:int ->
  float array
(** The serve row's load driver: one domain per tenant, each on its own
    keep-alive connection to the daemon's port, sends [per_tenant] sign
    requests back to back, the bodies naming [lane].  Returns every
    client-observed latency in ns (tenants in order).  A non-200 answer
    fails that tenant's worker; the first failure is re-raised once
    every worker has been joined, so the caller can then stop the
    daemon. *)

val all : Harness.row list
val find : string -> Harness.row option

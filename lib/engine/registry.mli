(** Thread-safe cache of compiled samplers.

    `Sampler.create` re-runs the whole Fig. 4 pipeline — Knuth–Yao table,
    leaf enumeration, sublist split, Quine–McCluskey/Petrick minimization —
    which costs seconds at Falcon parameters.  Under a parallel engine that
    cost must be paid once per parameter set, not once per domain or per
    request, so lookups are memoized behind a [Mutex] with single-flight
    semantics: concurrent lookups of the same key block until the one
    in-flight compile finishes and then all receive the {e same} sampler
    (physical equality).  Callers that need private mutable state (every
    pool worker does) take {!Ctgauss.Sampler.clone}s of the shared master. *)

type key = { sigma : string; precision : int; tail_cut : int }

type t

val create : unit -> t

val global : t
(** Process-wide registry shared by the CLI and the benches. *)

val lookup :
  t ->
  ?self_test:bool ->
  sigma:string ->
  precision:int ->
  tail_cut:int ->
  unit ->
  Ctgauss.Sampler.t
(** The cached sampler for the key, compiling it with
    {!Ctgauss.Sampler.create} on first use.  Repeated lookups return the
    physically equal master instance.

    A fresh compile whose {!Ctgauss.Sampler.digest} is one of the
    build-time kernels' ({!Ctg_kernels.Kernels.find}) is bound to that
    kernel ({!Ctgauss.Sampler.with_kernel}); any other program (an
    on-demand σ or precision) runs on the interpreter.

    [self_test] (default [true]) runs the {!Selftest} KAT on every fresh
    compile before it is published to the cache; a failing sampler is never
    cached and the claim is released, so a later lookup retries.
    @raise Selftest.Failed when the freshly compiled sampler disagrees
    with the reference Knuth–Yao walk. *)

val revalidate : ?strings:int -> t -> (key * Selftest.failure) list
(** Re-run the {!Selftest} KAT over every cached [Ready] sampler — the
    periodic integrity sweep against in-memory gate-table corruption.
    Failing entries are evicted under the single-flight lock: concurrent
    [lookup]s of an evicted key race for one [Building] claim and
    recompile {e exactly once}.  Entries mid-compile are skipped (they
    will be self-tested by their own [lookup]).  Returns the evicted
    keys with their first failing vector. *)

val size : t -> int
(** Distinct parameter sets currently cached. *)

val compiles : t -> int
(** Pipeline runs actually performed — with single-flight this equals
    {!size} no matter how many concurrent lookups raced. *)

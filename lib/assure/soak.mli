(** Always-on assurance driver: an engine pool with its full monitor
    stack, advanced one batch at a time.

    Each {!tick} pushes [batch] samples through the pool (feeding the
    drift monitor via the chunk observers) and runs [leak_steps]
    background dudect probes, so a long {!run} interleaves production-like
    sampling with continuous leakage assessment — the process behind both
    [ctg_stats watch] and the CI soak. *)

type t

val create :
  ?drift_config:Drift.config ->
  ?domains:int ->
  ?rng_of_lane:(int -> Ctg_prng.Bitstream.t) ->
  ?batch:int ->
  ?leak_steps:int ->
  ?seed:string ->
  sigma:string ->
  precision:int ->
  tail_cut:int ->
  unit ->
  t
(** Compile (or fetch from {!Ctg_engine.Registry.global}) the sampler and
    assemble pool + monitor + leak assessor on the pool's own metrics
    registry.  [rng_of_lane] is the fault-injection seam: wrap the genuine
    lanes in a {!Ctg_fault.Plan} bias model to exercise the alarm path
    (the assure CI control does exactly this).  [batch] defaults to
    [63 × 512] samples per tick; [leak_steps] to 64. *)

val tick : t -> unit
(** One batch plus one leak-probe round. *)

val run : t -> duration:float -> unit
(** Tick until [duration] seconds have elapsed. *)

val sigma : t -> string
val monitor : t -> Monitor.t
val pool : t -> Ctg_engine.Pool.t
val leak : t -> Leak.t
val ticks : t -> int
val samples : t -> int

val registry : t -> Ctg_obs.Registry.t
(** The pool's metrics registry — engine, ctmon and assure series
    together; what [/metrics] exposes. *)

val routes : t -> Ctg_net.Http.route list
(** {!Monitor.routes} over {!registry}. *)

val shutdown : t -> unit

val batch_bits_probe :
  Ctgauss.Sampler.t -> Ctg_ctcheck.Dudect.clazz -> float
(** The soak's leak probe: consumed bits for one 63-sample batch, fix
    class on a per-call-rebuilt fixed stream, random class on a live one.
    Constant for a CT sampler by construction. *)

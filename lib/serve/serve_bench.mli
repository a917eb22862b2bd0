(** The [bench serve] SLO gate behind [BENCH_serve.json].

    Boots a real {!Daemon} on an ephemeral port, drives it with
    concurrent keep-alive HTTP clients from several tenants, and gates
    the client-observed p99 latency against a {e direct}
    [Sign.sign_many] per-signature baseline measured in the same
    process: [p99 <= max (slo_mult * direct, floor_ns)].  Gating on the
    ratio keeps the check host-independent — the daemon may spend a
    bounded multiple of raw signing cost on queueing, coalescing and
    HTTP, wherever CI runs it; the absolute floor absorbs scheduler
    noise on slow runners.  The gate also requires coalescing to have
    actually happened ([mean_batch > 1]), zero shed at this moderate
    load, and a healthy monitor verdict. *)

type entry = {
  n : int;
  sigma : string;
  tenants : int;
  requests : int;
  batches : int;
  mean_batch : float;
  shed : int;
  direct_ns : float;  (** Per-signature cost of a direct sign_many run. *)
  p50_ns : float;  (** Client-observed, submit-to-verdict per request. *)
  p99_ns : float;
  slo_ns : float;  (** The bound actually applied to [p99_ns]. *)
  healthy : bool;
}

val slo_mult : float

val load : Daemon.t -> tenants:string array -> per_tenant:int -> float array
(** The load driver: one domain per tenant, each on its own keep-alive
    connection to the daemon's port, sends [per_tenant] sign requests
    back to back.  Returns every client-observed latency in ns (tenants
    in order).  A non-200 answer fails that tenant's worker; the first
    failure is re-raised once every worker has been joined, so the
    caller stops the daemon under [Fun.protect]. *)

val measure :
  ?n:int ->
  ?sigma:string ->
  ?precision:int ->
  ?tail_cut:int ->
  ?tenants:int ->
  ?per_tenant:int ->
  unit ->
  entry

val ok : entry -> bool
val to_json : entry list -> Ctg_obs.Jsonx.t
val save : string -> entry list -> unit
val pp_entry : Format.formatter -> entry -> unit

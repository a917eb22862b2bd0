module Bs = Ctg_prng.Bitstream
module Pool = Ctg_engine.Pool

type t = {
  sigma : string;
  pool : Pool.t;
  monitor : Monitor.t;
  leak : Leak.t;
  batch : int;
  leak_steps : int;
  mutable ticks : int;
}

(* The constant-time property under test is "every batch draws the same
   number of bits", so that is exactly what the background probe measures:
   one batch on a fixed (rebuilt-per-call) stream vs one on a live stream,
   work = consumed bits. *)
let batch_bits_probe sampler =
  let random = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "assure-rnd-probe") in
  fun (clazz : Ctg_ctcheck.Dudect.clazz) ->
    let rng =
      match clazz with
      | Ctg_ctcheck.Dudect.Fix ->
        Bs.of_chacha (Ctg_prng.Chacha20.of_seed "assure-fix-probe")
      | Ctg_ctcheck.Dudect.Random -> random
    in
    let b0 = Bs.bits_consumed rng in
    ignore (Ctgauss.Sampler.batch_signed sampler rng);
    float_of_int (Bs.bits_consumed rng - b0)

let create ?drift_config ?domains ?rng_of_lane ?(batch = 63 * 512)
    ?(leak_steps = 64) ?seed ~sigma ~precision ~tail_cut () =
  if batch < 1 then invalid_arg "Soak.create: batch must be >= 1";
  let sampler =
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma ~precision
      ~tail_cut ()
  in
  let seed = match seed with Some s -> s | None -> "assure-soak-" ^ sigma in
  let pool = Pool.create ?domains ?rng_of_lane ~seed sampler in
  let registry = Ctg_engine.Metrics.registry (Pool.metrics pool) in
  let labels = [ ("sigma", sigma) ] in
  let leak =
    Leak.create ~registry ~labels
      ~probe:(batch_bits_probe (Ctgauss.Sampler.clone sampler))
      ()
  in
  let monitor =
    Monitor.create ?config:drift_config ~registry ~labels ~leak
      ~matrix:(Ctgauss.Sampler.matrix sampler) ()
  in
  Monitor.attach_pool monitor pool;
  { sigma; pool; monitor; leak; batch; leak_steps; ticks = 0 }

let tick t =
  ignore (Pool.batch_parallel t.pool ~n:t.batch);
  Leak.step ~n:t.leak_steps t.leak;
  t.ticks <- t.ticks + 1

let run t ~duration =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < duration do
    tick t
  done

let sigma t = t.sigma
let monitor t = t.monitor
let pool t = t.pool
let leak t = t.leak
let ticks t = t.ticks
let samples t = Drift.samples (Monitor.drift t.monitor)
let registry t = Ctg_engine.Metrics.registry (Pool.metrics t.pool)
let shutdown t = Pool.shutdown t.pool

(* The parallel engine end to end: compile once through the registry, fan
   batched sampling out across domains, stream results under backpressure,
   and read the throughput metrics.

     dune exec examples/parallel_sampling.exe
*)

let () =
  (* 1. The registry caches the expensive compile (Knuth-Yao table ->
        minimized Boolean program); a second lookup is free and returns
        the physically same sampler. *)
  let sampler =
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma:"2"
      ~precision:128 ~tail_cut:13 ()
  in
  Format.printf "compiled: %d gates, %d cached parameter set(s)@."
    (Ctgauss.Sampler.gate_count sampler)
    (Ctg_engine.Registry.size Ctg_engine.Registry.global);

  (* 2. A pool of worker domains, each holding a private clone of the
        compiled program.  The master seed forks deterministically per
        work chunk, so this array is the same for ANY domain count. *)
  let pool = Ctg_engine.Pool.create ~domains:2 ~seed:"demo" sampler in
  let samples = Ctg_engine.Pool.batch_parallel pool ~n:100_000 in
  let mean =
    Array.fold_left (fun a v -> a +. float_of_int v) 0.0 samples
    /. float_of_int (Array.length samples)
  in
  Format.printf "batch_parallel: %d samples, mean %+.4f@."
    (Array.length samples) mean;

  (* 3. Streaming consumption: chunks arrive in order, one window of
        2 x domains chunks at a time, so a slow consumer throttles the
        workers instead of buffering the whole job. *)
  let chunks = ref 0 in
  Ctg_engine.Pool.iter_batches pool ~n:50_000 (fun chunk ->
      chunks := !chunks + 1;
      ignore chunk);
  Format.printf "iter_batches: %d chunks of <= %d samples@." !chunks
    (Ctg_engine.Pool.chunk_samples pool);

  (* 4. Atomic throughput counters, updated once per chunk. *)
  let m = Ctg_engine.Metrics.snapshot (Ctg_engine.Pool.metrics pool) in
  Format.printf "metrics:@.%a" Ctg_engine.Metrics.pp m;
  Ctg_engine.Pool.shutdown pool

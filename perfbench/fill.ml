(* fill-s2 / fill-s215: offline batch sampling on a two-domain Pool.

   End to end: signed samples per second from Pool.batch_parallel.  Every
   call's output is checked against the sampler's support, the first calls
   are replayed bit for bit on a one-domain pool with the same seed (the
   pool's documented determinism), and the constant-time monitor must
   record no violation.

   Traced: PRNG words, the one-domain gate kernel, the engine's chunk and
   queue histograms, and GC pauses, each timed from here. *)

open Common
module Pool = Ctg_engine.Pool
module Sampler = Ctgauss.Sampler
module Bs = Ctg_prng.Bitstream

(* [chunks] default-size chunks (1008 samples) per batch_parallel call:
   about 15 ms of work on two domains, long enough that the per-call
   hand-off between domains stays a small share. *)
type params = { sigma : string; precision : int; tail_cut : int; chunks : int; reps : int }

let params = function
  | "fill-s2" -> { sigma = "2"; precision = 128; tail_cut = 13; chunks = 32; reps = 5 }
  | "fill-s215" -> { sigma = "215"; precision = 16; tail_cut = 13; chunks = 32; reps = 3 }
  | w -> invalid_arg ("Fill.params: " ^ w)

let domains = 2
let replayed_calls = 4

let compile p =
  Ctg_engine.Registry.lookup (Ctg_engine.Registry.create ()) ~sigma:p.sigma
    ~precision:p.precision ~tail_cut:p.tail_cut ()

let pool_seed seed = Printf.sprintf "perfbench-fill-%d" seed

type window = {
  ops : op list;  (** One per batch_parallel call, in order. *)
  kept : int array option list;
      (** Outputs of the first calls, oldest first; [None] where one raised. *)
  samples : int;
  busy : float;  (** Seconds inside batch_parallel. *)
}

(* Call batch_parallel until [seconds] have passed, timing [reference]
   around each call (see Common.measure).  A call that raises or returns
   an out-of-support sample is failed, never retried. *)
let run_window ?(traced = false) pool ~reference ~n ~support ~seconds =
  let kept = ref [] and samples = ref 0 in
  let step () =
    let t0 = now () in
    let out =
      match
        if traced then span "bench.fill_call" (fun () -> Pool.batch_parallel pool ~n)
        else Pool.batch_parallel pool ~n
      with
      | out ->
        samples := !samples + n;
        Some out
      | exception e ->
        info "fill call failed: %s" (Printexc.to_string e);
        None
    in
    let secs = now () -. t0 in
    if List.length !kept < replayed_calls then kept := out :: !kept;
    let ok =
      match out with
      | Some out -> Array.length out = n && Array.for_all (fun z -> abs z <= support) out
      | None -> false
    in
    [ (fun ~slowdown -> { units = float_of_int n; secs; slowdown; ok }) ]
  in
  let ops = measure ~reference ~seconds step in
  let busy = List.fold_left (fun a o -> a +. o.secs) 0.0 ops in
  { ops; kept = List.rev !kept; samples = !samples; busy }

(* Replay the first calls on a one-domain pool over the same seed; true
   for each call whose output is identical. *)
let replay_matches sampler ~seed ~n kept =
  let ref_pool = Pool.create ~domains:1 ~seed:(pool_seed seed) sampler in
  let same = List.map (fun out -> Some (Pool.batch_parallel ref_pool ~n) = out) kept in
  Pool.shutdown ref_pool;
  same

let setup p ~seed =
  repeated_setup ~reps:p.reps ~dispose:(fun (_, pool) -> Pool.shutdown pool)
    (fun _ ->
      let sampler = compile p in
      (sampler, Pool.create ~domains ~seed:(pool_seed seed) sampler))

let check_engine pool =
  let violations = Ctg_obs.Ctmon.violations (Pool.ctmon pool) in
  if violations > 0 then info "ct violations: %d" violations;
  if Pool.degraded pool then info "pool degraded to the CDT fallback";
  violations = 0 && not (Pool.degraded pool)

let untraced (args : args) p =
  let (sampler, pool), setup_s = setup p ~seed:args.seed in
  let n = p.chunks * Pool.chunk_samples pool in
  let support = (Sampler.matrix sampler).Ctg_kyao.Matrix.support in
  (* The warm-up calls are the pool's first, so they are the ones the
     one-domain replay checks. *)
  let warm, w =
    with_partner (fun reference ->
        let warm = run_window pool ~reference ~n ~support ~seconds:warmup_s in
        (warm, run_window pool ~reference ~n ~support ~seconds:args.seconds))
  in
  let engine_ok = check_engine pool in
  Pool.shutdown pool;
  let same = replay_matches sampler ~seed:args.seed ~n warm.kept in
  if List.mem false same then info "two-domain output differs from one-domain replay";
  let warm_ops =
    List.mapi (fun i o -> if List.nth_opt same i = Some false then { o with ok = false } else o) warm.ops
  in
  let failed = failures warm_ops + failures w.ops in
  info "%d warm-up and %d timed calls, %d timed samples in %.2f s of calls" (List.length warm_ops)
    (List.length w.ops) w.samples w.busy;
  {
    correct = failed = 0 && engine_ok && w.ops <> [];
    attempted = List.length warm_ops + List.length w.ops;
    failed;
    metrics = batch_end_to_end ~setup_s ~warm:warm_ops w.ops;
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let probe_seed seed = Printf.sprintf "perfbench-probe-%d" seed

(* One-domain kernel probe: the prng.* and core.* metrics of [sampler],
   and its time per 63-lane batch.  Blocks of 64 Sampler.batch_signed
   calls alternate with blocks of the same number of Bitstream.next_word
   calls on a separate lane, so both medians see the same host
   conditions.  Gate time is derived: batch time minus its words at the
   measured word cost. *)
let kernel_probe sampler ~seed =
  let s = Sampler.clone sampler in
  let fork lane = Ctg_engine.Stream_fork.bitstream ~seed:(probe_seed seed) ~lane () in
  let rng = fork 0 and words_rng = fork 1 in
  ignore (Sampler.batch_signed s rng : int array);
  let words_per_batch = Bs.bits_consumed rng / 63 in
  let block = 64 in
  let batch_ns = ref [] and word_ns = ref [] in
  let batches = ref 0 and fb_batches = ref 0 and alloc = ref 0.0 in
  let bits0 = Bs.bits_consumed rng and work0 = Bs.prng_work rng in
  let res0 = Sampler.resamples s in
  let deadline = now () +. 2.0 in
  while now () < deadline do
    let w0 = minor_words () in
    let t0 = now () in
    for _ = 1 to block do
      let r = Sampler.resamples s in
      ignore (Sys.opaque_identity (Sampler.batch_signed s rng) : int array);
      if Sampler.resamples s > r then incr fb_batches
    done;
    let t1 = now () in
    alloc := !alloc +. (minor_words () -. w0);
    batch_ns := ((t1 -. t0) *. 1e9 /. float_of_int block) :: !batch_ns;
    batches := !batches + block;
    let words = block * words_per_batch in
    for _ = 1 to words do
      ignore (Sys.opaque_identity (Bs.next_word words_rng) : int)
    done;
    word_ns := ((now () -. t1) *. 1e9 /. float_of_int words) :: !word_ns
  done;
  let ns_per_word = median (Array.of_list !word_ns) in
  let batch_ns = median (Array.of_list !batch_ns) in
  let batches = float_of_int !batches in
  let samples = batches *. float_of_int Ctgauss.Bitslice.lanes in
  let bits = float_of_int (Bs.bits_consumed rng - bits0) in
  let gate_ns = batch_ns -. (bits /. batches /. 63.0 *. ns_per_word) in
  ( batch_ns,
    [
      m "prng.ns_per_word" "ns" ns_per_word;
      m "prng.bits_per_sample" "bits" (bits /. samples);
      m "prng.blocks_per_sample" "blocks" (float_of_int (Bs.prng_work rng - work0) /. samples);
      m "core.batch_ns" "ns" batch_ns;
      m "core.ns_per_gate" "ns" (gate_ns /. float_of_int (Sampler.gate_count sampler));
      m "core.alloc_words_per_sample" "words" (!alloc /. samples);
      m "core.fallback_lane_frac" "ratio" (float_of_int (Sampler.resamples s - res0) /. samples);
      m "core.fallback_batch_frac" "ratio" (float_of_int !fb_batches /. batches);
    ] )

let traced (args : args) p =
  let t0 = now () in
  let sampler = compile p in
  let compile_s = now () -. t0 in
  let pool = Pool.create ~domains ~seed:(pool_seed args.seed) sampler in
  let n = p.chunks * Pool.chunk_samples pool in
  let support = (Sampler.matrix sampler).Ctg_kyao.Matrix.support in
  let window = args.seconds /. 2.0 in
  let measured, host =
    with_host_marker (fun () ->
        let batch_ns, kernel = kernel_probe sampler ~seed:args.seed in
        let metrics = Pool.metrics pool in
        Ctg_engine.Metrics.reset metrics;
        let (untraced, traced), gc =
          gc_window ~own:true (fun () ->
              alternate ~pairs:4 (fun traced ->
                  run_window ~traced pool ~reference:reference_s ~n ~support
                    ~seconds:(window /. 4.0)))
        in
        finish_trace args;
        let snap = Ctg_engine.Metrics.snapshot metrics in
        (* The queue-wait histogram is fed by the streaming path only. *)
        Pool.iter_batches pool ~n:(4 * n) (fun _ -> ());
        let queue_wait =
          (Ctg_engine.Metrics.snapshot metrics).queue_wait.Ctg_obs.Histo.p50
        in
        let per_dom = Array.map float_of_int snap.per_domain_samples in
        let sum f ws = List.fold_left (fun a w -> a + f w) 0 ws in
        let rate ws =
          float_of_int (sum (fun w -> w.samples) ws)
          /. List.fold_left (fun a w -> a +. w.busy) 0.0 ws
        in
        (* Busy time per sample across the pool against the one-domain
           kernel's time per sample: the rest is engine overhead. *)
        let e2e_ns = float_of_int domains *. 1e9 /. rate untraced in
        ( kernel
          @ [
            m "engine.compile_s" "s" compile_s;
            m "engine.chunk_ns_p50" "ns" (float_of_int snap.chunk_service.Ctg_obs.Histo.p50);
            m "engine.queue_wait_ns_p50" "ns" (float_of_int queue_wait);
            m "engine.domain_skew" "ratio"
              (ratio
                 (Array.fold_left Float.max 0.0 per_dom -. Array.fold_left Float.min infinity per_dom)
                 (mean per_dom));
            m "engine.ct_violations" "count"
              (float_of_int (Ctg_obs.Ctmon.violations (Pool.ctmon pool)));
            m "trace.overhead_frac" "ratio" (ratio (rate untraced) (rate traced) -. 1.0);
            m "layers.residual_frac" "ratio" (1.0 -. (batch_ns /. 63.0 /. e2e_ns));
          ]
          @ gc,
          sum (fun w -> List.length w.ops) (untraced @ traced),
          sum (fun w -> failures w.ops) (untraced @ traced) ))
  in
  let engine_ok = check_engine pool in
  Pool.shutdown pool;
  let metrics, attempted, failed = measured in
  {
    correct = failed = 0 && engine_ok && attempted > 0;
    attempted = max 1 attempted;
    failed;
    metrics = per_layer (host :: metrics);
  }

let run (args : args) =
  let p = params args.workload in
  if args.trace then traced args p else untraced args p

(* The parallel engine: deterministic stream forking, the single-flight
   registry, pool determinism across domain counts, distribution quality of
   pooled output, metrics accounting, and parallel Falcon signing.  Small
   precisions keep the compiles fast; determinism claims are exact. *)

module E = Ctg_engine
module Bs = Ctg_prng.Bitstream
module F = Ctg_falcon

let sampler_16 =
  lazy (Ctgauss.Sampler.create ~sigma:"2" ~precision:16 ~tail_cut:13 ())

let take_bits rng n = Array.init n (fun _ -> Bs.next_bits rng 16)

let stream_fork_tests =
  [
    Alcotest.test_case "same (seed, lane) replays identically" `Quick (fun () ->
        List.iter
          (fun backend ->
            let mk () = E.Stream_fork.bitstream ~backend ~seed:"fork" ~lane:3 () in
            Alcotest.(check (array int))
              "identical" (take_bits (mk ()) 64) (take_bits (mk ()) 64))
          [ E.Stream_fork.Chacha; E.Stream_fork.Shake ]);
    Alcotest.test_case "distinct lanes and seeds give distinct streams" `Quick
      (fun () ->
        List.iter
          (fun backend ->
            let stream ~seed ~lane =
              take_bits (E.Stream_fork.bitstream ~backend ~seed ~lane ()) 32
            in
            let base = stream ~seed:"fork" ~lane:0 in
            Alcotest.(check bool) "lane 1 differs" true
              (stream ~seed:"fork" ~lane:1 <> base);
            Alcotest.(check bool) "lane 63 differs" true
              (stream ~seed:"fork" ~lane:63 <> base);
            Alcotest.(check bool) "other seed differs" true
              (stream ~seed:"fork2" ~lane:0 <> base))
          [ E.Stream_fork.Chacha; E.Stream_fork.Shake ]);
    Alcotest.test_case "chacha fork = master key + lane nonce" `Quick (fun () ->
        (* The fork must be the documented construction, not an ad-hoc one:
           lane k's stream equals ChaCha20(key_of_seed seed, nonce(k)). *)
        let seed = "construction" in
        let direct =
          Bs.of_chacha
            (Ctg_prng.Chacha20.create
               ~key:(Ctg_prng.Chacha20.key_of_seed seed)
               ~nonce:(E.Stream_fork.lane_nonce 7))
        in
        let forked = E.Stream_fork.bitstream ~seed ~lane:7 () in
        Alcotest.(check (array int))
          "equal" (take_bits direct 64) (take_bits forked 64));
    Alcotest.test_case "negative lane rejected" `Quick (fun () ->
        Alcotest.check_raises "lane -1"
          (Invalid_argument "Stream_fork.bitstream: lane must be >= 0")
          (fun () ->
            ignore (E.Stream_fork.bitstream ~seed:"x" ~lane:(-1) ())));
  ]

let registry_tests =
  [
    Alcotest.test_case "repeated lookups are physically equal" `Quick (fun () ->
        let r = E.Registry.create () in
        let get () =
          E.Registry.lookup r ~sigma:"2" ~precision:16 ~tail_cut:13 ()
        in
        let a = get () in
        let b = get () in
        Alcotest.(check bool) "physical equality" true (a == b);
        Alcotest.(check int) "one compile" 1 (E.Registry.compiles r);
        Alcotest.(check int) "one entry" 1 (E.Registry.size r));
    Alcotest.test_case "distinct keys compile separately" `Quick (fun () ->
        let r = E.Registry.create () in
        let a = E.Registry.lookup r ~sigma:"2" ~precision:16 ~tail_cut:13 () in
        let b = E.Registry.lookup r ~sigma:"2" ~precision:12 ~tail_cut:13 () in
        let c = E.Registry.lookup r ~sigma:"2" ~precision:16 ~tail_cut:12 () in
        Alcotest.(check bool) "different programs" true (a != b && a != c);
        Alcotest.(check int) "three compiles" 3 (E.Registry.compiles r));
    Alcotest.test_case "single flight under concurrent lookups" `Quick
      (fun () ->
        let r = E.Registry.create () in
        let results = Array.make 4 None in
        let doms =
          List.init 4 (fun i ->
              Domain.spawn (fun () ->
                  results.(i) <-
                    Some
                      (E.Registry.lookup r ~sigma:"1.5" ~precision:16
                         ~tail_cut:13 ())))
        in
        List.iter Domain.join doms;
        let first =
          match results.(0) with Some s -> s | None -> Alcotest.fail "missing"
        in
        Array.iter
          (function
            | Some s ->
              Alcotest.(check bool) "same master" true (s == first)
            | None -> Alcotest.fail "missing result")
          results;
        Alcotest.(check int) "compiled exactly once" 1 (E.Registry.compiles r));
  ]

(* A pool over the shared precision-16 sampler; every test shuts it down. *)
let with_pool ?(domains = 1) ?(seed = "engine-tests") ?chunk_batches f =
  let pool =
    E.Pool.create ~domains ?chunk_batches ~seed (Lazy.force sampler_16)
  in
  Fun.protect ~finally:(fun () -> E.Pool.shutdown pool) (fun () -> f pool)

let pool_tests =
  [
    Alcotest.test_case "same seed, same samples for 1/2/4 domains" `Quick
      (fun () ->
        (* A non-multiple of the chunk size exercises the partial tail. *)
        let n = (63 * 40) + 17 in
        let run domains =
          with_pool ~domains ~chunk_batches:4 (fun p ->
              E.Pool.batch_parallel p ~n)
        in
        let one = run 1 in
        Alcotest.(check int) "length" n (Array.length one);
        Alcotest.(check (array int)) "2 domains" one (run 2);
        Alcotest.(check (array int)) "4 domains" one (run 4));
    Alcotest.test_case "clone of master matches sequential sampler" `Quick
      (fun () ->
        (* Chunk 0 of the first job must equal plain batch_signed on the
           same forked lane: the pool adds scheduling, not semantics. *)
        let n = 63 * 2 in
        let pooled =
          with_pool ~domains:2 ~chunk_batches:4 (fun p ->
              E.Pool.batch_parallel p ~n)
        in
        let rng =
          E.Stream_fork.bitstream ~seed:"engine-tests" ~lane:0 ()
        in
        let clone = Ctgauss.Sampler.clone (Lazy.force sampler_16) in
        let first = Ctgauss.Sampler.batch_signed clone rng in
        let second = Ctgauss.Sampler.batch_signed clone rng in
        let direct = Array.concat [ first; second ] in
        Alcotest.(check (array int)) "equal" direct pooled);
    Alcotest.test_case "successive jobs draw fresh lanes" `Quick (fun () ->
        with_pool ~domains:2 (fun p ->
            let a = E.Pool.batch_parallel p ~n:256 in
            let b = E.Pool.batch_parallel p ~n:256 in
            Alcotest.(check bool) "different randomness" true (a <> b)));
    Alcotest.test_case "iter_batches streams the batch_parallel output" `Quick
      (fun () ->
        (* Two fresh pools with the same seed start from lane 0, so the
           streamed chunks must concatenate to the batch_parallel array.
           13 chunks on 3 domains stream as windows of 6, 6 and 1 chunks;
           the next job on each pool pins the lane cursor they leave. *)
        let n = (63 * 24) + 5 in
        let whole, whole_next =
          with_pool ~domains:3 ~chunk_batches:2 (fun p ->
              let a = E.Pool.batch_parallel p ~n in
              (a, E.Pool.batch_parallel p ~n:256))
        in
        let streamed, streamed_next =
          with_pool ~domains:3 ~chunk_batches:2 (fun p ->
              let acc = ref [] in
              E.Pool.iter_batches p ~n (fun chunk -> acc := chunk :: !acc);
              (Array.concat (List.rev !acc), E.Pool.batch_parallel p ~n:256))
        in
        Alcotest.(check (array int)) "identical stream" whole streamed;
        Alcotest.(check (array int)) "same next job" whole_next streamed_next);
    Alcotest.test_case "n = 0 and invalid arguments" `Quick (fun () ->
        with_pool ~domains:2 (fun p ->
            Alcotest.(check (array int)) "empty" [||]
              (E.Pool.batch_parallel p ~n:0);
            Alcotest.check_raises "negative n"
              (Invalid_argument "Pool: n must be >= 0") (fun () ->
                ignore (E.Pool.batch_parallel p ~n:(-1)))));
    Alcotest.test_case "worker exception surfaces on the caller" `Quick
      (fun () ->
        (* The regression this guards: a worker dying mid-chunk used to
           leave batch_parallel blocked on the output queue forever.  Now
           the failure aborts the job and re-raises here, on both output
           paths. *)
        let n = 63 * 2 * 6 in
        List.iter
          (fun (path, run) ->
            with_pool ~domains:2 ~chunk_batches:2 (fun p ->
                E.Pool.set_fault_hook p
                  (Some (fun ~chunk:_ ~lane:_ ~attempt:_ -> failwith "dead"));
                (match run p with
                | () -> Alcotest.fail (path ^ ": expected Chunk_failed")
                | exception E.Pool.Chunk_failed { error; _ } ->
                  Alcotest.(check bool)
                    (path ^ ": underlying error kept")
                    true (error = Failure "dead")
                | exception e ->
                  Alcotest.fail
                    (path ^ ": unexpected exception " ^ Printexc.to_string e));
                E.Pool.set_fault_hook p None;
                (* And the pool is still serviceable afterwards. *)
                Alcotest.(check int)
                  (path ^ ": next job runs") 63
                  (Array.length (E.Pool.batch_parallel p ~n:63))))
          [
            ("batch_parallel", fun p -> ignore (E.Pool.batch_parallel p ~n));
            ("iter_batches", fun p -> E.Pool.iter_batches p ~n ignore);
          ]);
    Alcotest.test_case "iter_batches consumer exception propagates" `Quick
      (fun () ->
        with_pool ~domains:2 ~chunk_batches:2 (fun p ->
            let exception Consumer_stop in
            (match
               E.Pool.iter_batches p ~n:(63 * 2 * 8) (fun _ ->
                   raise Consumer_stop)
             with
            | () -> Alcotest.fail "expected the consumer exception"
            | exception Consumer_stop -> ());
            Alcotest.(check int)
              "next job runs" 63
              (Array.length (E.Pool.batch_parallel p ~n:63))));
    Alcotest.test_case "shutdown is idempotent and final" `Quick (fun () ->
        let p = E.Pool.create ~domains:2 ~seed:"bye" (Lazy.force sampler_16) in
        ignore (E.Pool.batch_parallel p ~n:100);
        E.Pool.shutdown p;
        E.Pool.shutdown p;
        Alcotest.check_raises "jobs after shutdown"
          (Invalid_argument "Pool: shut down") (fun () ->
            ignore (E.Pool.batch_parallel p ~n:1)));
    Alcotest.test_case "workforce run re-raises a worker exception" `Quick
      (fun () ->
        let ran = Atomic.make 0 in
        let w = E.Workforce.create ~domains:3 () in
        (match
           E.Workforce.run w ~n:200 (fun i ->
               ignore (Atomic.fetch_and_add ran 1);
               if i = 50 then failwith "iteration 50")
         with
        | () -> Alcotest.fail "expected the iteration failure"
        | exception Failure msg ->
          Alcotest.(check string) "first error wins" "iteration 50" msg);
        E.Workforce.shutdown w;
        (* At least the failing iteration itself ran. *)
        Alcotest.(check bool) "iterations ran" true (Atomic.get ran >= 1));
    Alcotest.test_case "pooled parallel output fits the exact distribution"
      `Quick (fun () ->
        let total = 63 * 1200 in
        let samples =
          with_pool ~domains:4 (fun p -> E.Pool.batch_parallel p ~n:total)
        in
        let m = Ctgauss.Sampler.matrix (Lazy.force sampler_16) in
        let exact = Ctg_stats.Distance.exact_probabilities m in
        let support = m.Ctg_kyao.Matrix.support in
        let observed = Array.make (support + 1) 0 in
        Array.iter
          (fun v ->
            let a = abs v in
            if a <= support then observed.(a) <- observed.(a) + 1)
          samples;
        let expected =
          Array.map (fun p -> p *. float_of_int total) exact
        in
        let r = Ctg_stats.Chi_square.test ~observed ~expected in
        Alcotest.(check bool)
          (Printf.sprintf "p=%.4f above 0.001" r.Ctg_stats.Chi_square.p_value)
          true
          (r.Ctg_stats.Chi_square.p_value > 0.001));
    Alcotest.test_case "metrics account for every sample and batch" `Quick
      (fun () ->
        let n = (63 * 32) + 40 in
        with_pool ~domains:2 ~chunk_batches:4 (fun p ->
            let s0 = E.Metrics.snapshot (E.Pool.metrics p) in
            Alcotest.(check int) "starts empty" 0 s0.E.Metrics.samples;
            ignore (E.Pool.batch_parallel p ~n);
            let s = E.Metrics.snapshot (E.Pool.metrics p) in
            Alcotest.(check int) "samples" n s.E.Metrics.samples;
            (* ceil(n / 63) program runs, counted chunk by chunk. *)
            Alcotest.(check int) "batches" ((n + 62) / 63) s.E.Metrics.batches;
            let gc = Ctgauss.Sampler.gate_count (Lazy.force sampler_16) in
            Alcotest.(check int) "gate evals" (s.E.Metrics.batches * gc)
              s.E.Metrics.gate_evals;
            Alcotest.(check bool) "bits flowed" true (s.E.Metrics.bits_consumed > 0);
            Alcotest.(check bool) "prng worked" true (s.E.Metrics.prng_work > 0);
            Alcotest.(check int) "per-domain sums to total" n
              (Array.fold_left ( + ) 0 s.E.Metrics.per_domain_samples);
            E.Metrics.reset (E.Pool.metrics p);
            let z = E.Metrics.snapshot (E.Pool.metrics p) in
            Alcotest.(check int) "reset" 0 z.E.Metrics.samples));
    Alcotest.test_case "chunk observers see every sample exactly once" `Quick
      (fun () ->
        (* Observers run on worker domains in nondeterministic chunk order,
           but the multiset of (chunk, samples) deliveries is fixed: sorting
           the observed chunks by index must reassemble the output, for
           batch_parallel and for iter_batches. *)
        let n = (16 * 63 * 3) + 17 in
        let observe p =
          let mutex = Mutex.create () in
          let chunks = ref [] in
          E.Pool.add_chunk_observer p (fun ~chunk ~lane samples ->
              Mutex.lock mutex;
              chunks := (chunk, lane, Array.copy samples) :: !chunks;
              Mutex.unlock mutex);
          let out = E.Pool.batch_parallel p ~n in
          (out, List.sort compare !chunks)
        in
        let reassemble chunks =
          Array.concat (List.map (fun (_, _, s) -> s) chunks)
        in
        with_pool ~domains:3 (fun p ->
            let out, chunks = observe p in
            Alcotest.(check (array int)) "array sink" out (reassemble chunks);
            (* Lanes are the job's consecutive range: chunk c -> lane_base + c. *)
            let lanes = List.map (fun (c, l, _) -> l - c) chunks in
            Alcotest.(check bool) "constant lane base" true
              (List.for_all (fun b -> b = List.hd lanes) lanes));
        with_pool ~domains:2 (fun p ->
            (* Streamed: observers see chunk indices within the call. *)
            let mutex = Mutex.create () in
            let chunks = ref [] in
            E.Pool.add_chunk_observer p (fun ~chunk ~lane:_ samples ->
                Mutex.lock mutex;
                chunks := (chunk, 0, Array.copy samples) :: !chunks;
                Mutex.unlock mutex);
            let streamed = ref [] in
            E.Pool.iter_batches p ~n (fun c -> streamed := Array.copy c :: !streamed);
            let streamed = Array.concat (List.rev !streamed) in
            Alcotest.(check (array int))
              "streamed" streamed
              (reassemble (List.sort compare !chunks))));
    Alcotest.test_case "persistent workforce serves the next job after an error"
      `Quick (fun () ->
        let w = E.Workforce.create ~domains:2 () in
        Fun.protect
          ~finally:(fun () -> E.Workforce.shutdown w)
          (fun () ->
            (match E.Workforce.run w ~n:50 (fun i -> if i = 7 then failwith "item 7") with
            | () -> Alcotest.fail "expected the item failure"
            | exception Failure msg ->
              Alcotest.(check string) "error re-raised" "item 7" msg);
            (* The same team, next job: every index exactly once. *)
            let hits = Array.init 64 (fun _ -> Atomic.make 0) in
            E.Workforce.run w ~n:64 (fun i -> Atomic.incr hits.(i));
            Array.iteri
              (fun i h ->
                Alcotest.(check int) (Printf.sprintf "index %d" i) 1 (Atomic.get h))
              hits));
  ]

(* The sampling hot path allocates nothing: a regression (a fresh array
   per batch, a copied PRNG block) shows up as words per sample.  Gc
   counters are per domain, so pool work is measured on the worker from
   its fault hook, which runs at the start of every chunk. *)
let sampler_64 =
  lazy (Ctgauss.Sampler.create ~sigma:"2" ~precision:64 ~tail_cut:13 ())

(* Words allocated on this domain by [f], minor and major. *)
let alloc_words f =
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* The registry's sampler for a paper key (compiled once, then cached):
   bound to its build-time kernel.  σ=215 at precision 16 is the key
   whose batches take the scalar fallback. *)
let paper_sampler (sigma, precision) =
  E.Registry.lookup E.Registry.global ~sigma ~precision ~tail_cut:13 ()

let kernel_tests =
  Alcotest.test_case "registry binds a kernel for every paper key" `Quick
    (fun () ->
      (* A compile that stopped being deterministic would change the
         digest and silently fall back to the interpreter. *)
      List.iter
        (fun ((sigma, _) as key) ->
          let s = paper_sampler key in
          Alcotest.(check bool) ("bound, sigma=" ^ sigma) true (Ctgauss.Sampler.has_kernel s);
          Alcotest.(check bool)
            ("clone bound, sigma=" ^ sigma)
            true
            (Ctgauss.Sampler.has_kernel (Ctgauss.Sampler.clone s)))
        Ctgauss.Sampler.paper_keys)
  :: Alcotest.test_case "self-test runs the bound kernel" `Quick (fun () ->
         (* A kernel that computes nothing must fail the KAT, so the KAT
            checks the code that serves, not only the gate table. *)
         let s = Ctgauss.Sampler.with_kernel (paper_sampler ("2", 128)) ignore in
         Alcotest.(check bool) "digest still matches" true (Ctgauss.Sampler.integrity_ok s);
         Alcotest.(check bool) "KAT fails" true (Result.is_error (E.Selftest.run s)))
  :: List.map
       (fun ((sigma, precision) as key) ->
         let name = Printf.sprintf "kernel = interpreter, sigma=%s/%d" sigma precision in
         QCheck_alcotest.to_alcotest
           (QCheck.Test.make ~name ~count:200 QCheck.int (fun seed ->
                let s = paper_sampler key in
                let p = Ctgauss.Sampler.program s in
                let kernel = Option.get (Ctg_kernels.Kernels.find (Ctgauss.Sampler.digest s)) in
                let rng = Ctg_prng.Splitmix64.create (Int64.of_int seed) in
                let inputs =
                  Array.init p.Ctgauss.Gate.num_vars (fun _ ->
                      Int64.to_int (Ctg_prng.Splitmix64.next rng))
                in
                let interp = Ctgauss.Bitslice.scratch p and gen = Ctgauss.Bitslice.scratch p in
                Ctgauss.Bitslice.eval p interp ~inputs;
                Ctgauss.Bitslice.eval_kernel kernel gen ~inputs;
                Ctgauss.Bitslice.valid_word p interp = Ctgauss.Bitslice.valid_word p gen
                && Array.for_all
                     (fun i -> Ctgauss.Bitslice.output p interp i = Ctgauss.Bitslice.output p gen i)
                     (Array.init (Array.length p.Ctgauss.Gate.outputs) Fun.id))))
       Ctgauss.Sampler.paper_keys

let alloc_tests =
  [
    Alcotest.test_case "Sampler.sample allocates nothing after warm-up" `Quick
      (fun () ->
        let s = Ctgauss.Sampler.clone (Lazy.force sampler_64) in
        (* A forked lane carries the entropy health tests, as in the pool. *)
        let rng = E.Stream_fork.bitstream ~seed:"alloc" ~lane:0 () in
        for _ = 1 to 1000 do
          ignore (Ctgauss.Sampler.sample s rng)
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to 10_000 do
          ignore (Sys.opaque_identity (Ctgauss.Sampler.sample s rng))
        done;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check (float 0.0)) "words per sample" 0.0 (words /. 10_000.));
    Alcotest.test_case "sigma=215/16 with fallback lanes allocates nothing" `Quick
      (fun () ->
        let s = Ctgauss.Sampler.clone (paper_sampler ("215", 16)) in
        let rng = E.Stream_fork.bitstream ~seed:"alloc" ~lane:0 () in
        for _ = 1 to 1000 do
          ignore (Ctgauss.Sampler.sample s rng)
        done;
        let fallbacks = Ctgauss.Sampler.resamples s in
        let w0 = Gc.minor_words () in
        for _ = 1 to 63 * 400 do
          ignore (Sys.opaque_identity (Ctgauss.Sampler.sample s rng))
        done;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check bool) "fallback lanes walked" true
          (Ctgauss.Sampler.resamples s > fallbacks);
        Alcotest.(check (float 0.0)) "words per sample" 0.0 (words /. (63. *. 400.)));
    Alcotest.test_case "one-domain batch_parallel: only per-call bookkeeping"
      `Quick (fun () ->
        let pool =
          E.Pool.create ~domains:1 ~seed:"alloc" (Lazy.force sampler_64)
        in
        Fun.protect ~finally:(fun () -> E.Pool.shutdown pool) (fun () ->
            let chunks = 6 in
            let n = chunks * E.Pool.chunk_samples pool in
            ignore (E.Pool.batch_parallel pool ~n);
            let marks = Array.make chunks 0.0 in
            E.Pool.set_fault_hook pool
              (Some (fun ~chunk ~lane:_ ~attempt:_ -> marks.(chunk) <- Gc.minor_words ()));
            let caller = alloc_words (fun () -> ignore (E.Pool.batch_parallel pool ~n)) in
            (* Caller: the returned array (n words and a header, allocated
               directly in the major heap) plus the job's records. *)
            let caller_extra = caller -. float_of_int (n + 1) in
            if caller_extra > 512.0 then
              Alcotest.failf "caller allocated %.0f words beyond the result" caller_extra;
            (* Worker: from one chunk's start to the next, a chunk of 1008
               samples plus its completion may allocate a bounded number of
               words for spans and metrics, far below one per sample. *)
            for c = 0 to chunks - 2 do
              let words = marks.(c + 1) -. marks.(c) in
              if words > 256.0 then
                Alcotest.failf "chunk %d allocated %.0f words on the worker" c words
            done));
  ]

let sign_many_tests =
  [
    Alcotest.test_case "identical signatures for 1 and 3 domains" `Quick
      (fun () ->
        let params = F.Params.custom ~n:16 in
        let kp =
          F.Keygen.generate params
            (Bs.of_chacha (Ctg_prng.Chacha20.of_seed "sign-many-key"))
        in
        let master = Lazy.force sampler_16 in
        let make_base () =
          F.Base_sampler.of_instance
            (Ctg_samplers.Sampler_sig.of_bitsliced (Ctgauss.Sampler.clone master))
        in
        let msgs =
          Array.init 6 (fun i -> Bytes.of_string (Printf.sprintf "msg %d" i))
        in
        let run domains =
          F.Sign.sign_many ~domains kp ~make_base ~seed:"sign-many" ~msgs
        in
        let one = run 1 in
        let three = run 3 in
        Array.iteri
          (fun i (s : F.Sign.signature) ->
            Alcotest.(check (array int))
              (Printf.sprintf "s2 of message %d" i)
              s.F.Sign.s2 three.(i).F.Sign.s2;
            Alcotest.(check string)
              (Printf.sprintf "salt of message %d" i)
              (Bytes.to_string s.F.Sign.salt)
              (Bytes.to_string three.(i).F.Sign.salt))
          one;
        (* And they verify. *)
        let bound = F.Sign.norm_bound_sq params in
        Array.iteri
          (fun i (s : F.Sign.signature) ->
            Alcotest.(check bool)
              (Printf.sprintf "message %d verifies" i)
              true
              (F.Verify.verify ~params ~h:kp.F.Keygen.h ~bound_sq:bound
                 ~msg:msgs.(i) ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2))
          one);
    Alcotest.test_case "one domain signs on the calling domain" `Quick
      (fun () ->
        let params = F.Params.custom ~n:16 in
        let kp =
          F.Keygen.generate params
            (Bs.of_chacha (Ctg_prng.Chacha20.of_seed "sign-many-key"))
        in
        let master = Lazy.force sampler_16 in
        let caller = Domain.self () in
        let elsewhere = Atomic.make 0 in
        let make_base () =
          if Domain.self () <> caller then Atomic.incr elsewhere;
          F.Base_sampler.of_instance
            (Ctg_samplers.Sampler_sig.of_bitsliced (Ctgauss.Sampler.clone master))
        in
        let msgs =
          Array.init 3 (fun i -> Bytes.of_string (Printf.sprintf "msg %d" i))
        in
        ignore (F.Sign.sign_many ~domains:1 kp ~make_base ~seed:"sign-many" ~msgs);
        Alcotest.(check int) "bases made off the caller" 0 (Atomic.get elsewhere));
  ]

let () =
  Alcotest.run "engine"
    [
      ("stream_fork", stream_fork_tests);
      ("registry", registry_tests);
      ("pool", pool_tests);
      ("sign_many", sign_many_tests);
      ("kernels", kernel_tests);
      ("alloc", alloc_tests);
    ]

(* The fault-injection harness and the defenses it exercises: plan
   reproducibility and windowing, gate-table corruption with digest
   detection, health trips on faulted lanes, pool supervision (retry,
   respawn, stall) with bit-exact recovery, CT degradation, and the
   verify-after-sign barrier.  Everything runs at precision 16 so the
   compiles stay fast; the claims are exact, not statistical. *)

module E = Ctg_engine
module Bs = Ctg_prng.Bitstream
module Health = Ctg_prng.Health
module Plan = Ctg_fault.Plan
module F = Ctg_falcon

let sampler_16 =
  lazy (Ctgauss.Sampler.create ~sigma:"2" ~precision:16 ~tail_cut:13 ())

let inner () = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "fault-tests")
let take_bytes rng n = Array.init n (fun _ -> Bs.next_byte rng)

let plan_tests =
  [
    Alcotest.test_case "wrap replays identically for the same seed" `Quick
      (fun () ->
        let mk () =
          let plan =
            Plan.rng_plan ~seed:7L (Plan.Bias { p_one = 0.9 })
          in
          Plan.wrap plan ~lane:0 (inner ())
        in
        Alcotest.(check (array int))
          "identical" (take_bytes (mk ()) 256) (take_bytes (mk ()) 256));
    Alcotest.test_case "stuck-bits applies the masks inside the window" `Quick
      (fun () ->
        let plan =
          Plan.rng_plan ~window:(Plan.from_byte 4) ~seed:1L
            (Plan.Stuck_bits { and_mask = 0xf0; or_mask = 0x0f })
        in
        let clean = take_bytes (inner ()) 32 in
        let faulty = take_bytes (Plan.wrap plan ~lane:0 (inner ())) 32 in
        Array.iteri
          (fun i b ->
            let want =
              if i < 4 then clean.(i) else clean.(i) land 0xf0 lor 0x0f
            in
            Alcotest.(check int) (Printf.sprintf "byte %d" i) want b)
          faulty);
    Alcotest.test_case "repeat replays the first period forever" `Quick
      (fun () ->
        let plan = Plan.rng_plan ~seed:2L (Plan.Repeat { period = 3 }) in
        let faulty = take_bytes (Plan.wrap plan ~lane:0 (inner ())) 30 in
        Array.iteri
          (fun i b ->
            Alcotest.(check int)
              (Printf.sprintf "byte %d" i)
              faulty.(i mod 3) b)
          faulty);
    Alcotest.test_case "untargeted lanes are untouched" `Quick (fun () ->
        let plan = Plan.rng_plan ~lanes:[ 2 ] ~seed:3L Plan.Exhausted in
        Alcotest.(check bool) "lane 2 targeted" true (Plan.applies plan ~lane:2);
        Alcotest.(check bool) "lane 1 not" false (Plan.applies plan ~lane:1);
        Alcotest.(check (array int))
          "lane 1 bytes clean" (take_bytes (inner ()) 64)
          (take_bytes (Plan.wrap plan ~lane:1 (inner ())) 64));
    Alcotest.test_case "corrupt/restore round-trips the digest" `Quick
      (fun () ->
        let sampler = Ctgauss.Sampler.clone (Lazy.force sampler_16) in
        let program = Ctgauss.Sampler.program sampler in
        let d0 = Ctgauss.Gate.digest program in
        let cs = Plan.corrupt_program ~seed:11L ~flips:2 program in
        Alcotest.(check int) "two flips" 2 (List.length cs);
        Alcotest.(check bool)
          "distinct sites" true
          (match cs with
          | [ a; b ] -> a.Plan.index <> b.Plan.index
          | _ -> false);
        Alcotest.(check bool)
          "still structurally valid" true
          (Ctgauss.Gate.validate program = Ok ());
        Alcotest.(check bool)
          "digest moved" true
          (Ctgauss.Gate.digest program <> d0);
        Alcotest.(check bool)
          "integrity flags it" false
          (Ctgauss.Sampler.integrity_ok sampler);
        Plan.restore_program program cs;
        Alcotest.(check bool)
          "digest restored" true
          (Ctgauss.Gate.digest program = d0);
        Alcotest.(check bool)
          "integrity clean again" true
          (Ctgauss.Sampler.integrity_ok sampler));
  ]

let selftest_tests =
  [
    Alcotest.test_case "clean sampler passes" `Quick (fun () ->
        Alcotest.(check bool)
          "ok" true
          (E.Selftest.run (Lazy.force sampler_16) = Ok ()));
    Alcotest.test_case "digest check fires before any KAT vector" `Quick
      (fun () ->
        let sampler = Ctgauss.Sampler.clone (Lazy.force sampler_16) in
        let program = Ctgauss.Sampler.program sampler in
        let cs = Plan.corrupt_program ~seed:21L ~flips:1 program in
        Fun.protect
          ~finally:(fun () -> Plan.restore_program program cs)
          (fun () ->
            match E.Selftest.run sampler with
            | Ok () -> Alcotest.fail "corruption not detected"
            | Error f ->
              Alcotest.(check int) "digest failure" (-1) f.E.Selftest.index));
  ]

(* Health tests observe the faulty byte flow because the lane factory
   attaches them to the wrapper, not the clean inner stream. *)
let health_integration_tests =
  [
    Alcotest.test_case "exhausted lane trips repetition-count" `Quick
      (fun () ->
        let plan = Plan.rng_plan ~lanes:[ 0 ] ~seed:5L Plan.Exhausted in
        let rng = Plan.lane_factory plan ~seed:"health-int" 0 in
        let tripped =
          try
            for _ = 1 to 100 do
              ignore (Bs.next_word rng)
            done;
            None
          with Health.Entropy_failure f -> Some f.Health.test
        in
        Alcotest.(check bool)
          "repetition-count tripped" true
          (tripped = Some Health.Repetition));
    Alcotest.test_case "clean lane under the same factory survives" `Quick
      (fun () ->
        let plan = Plan.rng_plan ~lanes:[ 0 ] ~seed:5L Plan.Exhausted in
        let rng = Plan.lane_factory plan ~seed:"health-int" 1 in
        for _ = 1 to 2000 do
          ignore (Bs.next_word rng)
        done);
  ]

let with_pool ?(domains = 2) ?(seed = "fault-pool") ?(chunk_batches = 2)
    ?stall_timeout ?hook f =
  let pool =
    E.Pool.create ~domains ~chunk_batches ?stall_timeout ~seed
      (Lazy.force sampler_16)
  in
  E.Pool.set_fault_hook pool hook;
  Fun.protect ~finally:(fun () -> E.Pool.shutdown pool) (fun () -> f pool)

let reference_output n = with_pool (fun p -> E.Pool.batch_parallel p ~n)

let pool_tests =
  [
    Alcotest.test_case "killed worker: chunk re-run bit-exact, respawned"
      `Quick (fun () ->
        let n = 63 * 2 * 4 in
        let reference = reference_output n in
        let hook = Plan.pool_hook [ Plan.Kill { chunk = 1 } ] in
        with_pool ~hook (fun p ->
            Alcotest.(check (array int))
              "output unchanged" reference
              (E.Pool.batch_parallel p ~n);
            let s = E.Metrics.snapshot (E.Pool.metrics p) in
            Alcotest.(check int) "one respawn" 1 s.E.Metrics.worker_respawns));
    Alcotest.test_case "transient failure: retried in place, bit-exact"
      `Quick (fun () ->
        let n = 63 * 2 * 4 in
        let reference = reference_output n in
        let hook =
          Plan.pool_hook [ Plan.Fail { chunk = 2; error = Failure "glitch" } ]
        in
        with_pool ~hook (fun p ->
            Alcotest.(check (array int))
              "output unchanged" reference
              (E.Pool.batch_parallel p ~n);
            let s = E.Metrics.snapshot (E.Pool.metrics p) in
            Alcotest.(check bool)
              "retry counted" true
              (s.E.Metrics.chunk_retries >= 1)));
    Alcotest.test_case "persistent failure surfaces as Chunk_failed" `Quick
      (fun () ->
        (* Satellite check from the pool side: a chunk that always fails
           must raise on the caller, not leave it blocked on the queue. *)
        let hook ~chunk ~lane:_ ~attempt:_ =
          if chunk = 0 then failwith "permanent"
        in
        with_pool ~hook (fun p ->
            match E.Pool.batch_parallel p ~n:(63 * 2 * 4) with
            | _ -> Alcotest.fail "expected Chunk_failed"
            | exception E.Pool.Chunk_failed { chunk; attempts; error } ->
              Alcotest.(check int) "chunk" 0 chunk;
              Alcotest.(check int) "attempts = retries + 1" 3 attempts;
              Alcotest.(check bool)
                "underlying error kept" true
                (error = Failure "permanent")));
    Alcotest.test_case "hung worker: stall watchdog raises Stalled" `Quick
      (fun () ->
        let hook =
          Plan.pool_hook [ Plan.Hang { chunk = 0; seconds = 1.2 } ]
        in
        with_pool ~domains:1 ~stall_timeout:0.25 ~hook (fun p ->
            match E.Pool.batch_parallel p ~n:(63 * 2 * 2) with
            | _ -> Alcotest.fail "expected Stalled"
            | exception E.Pool.Stalled _ -> ()));
    Alcotest.test_case "pool survives a fault and serves the next job"
      `Quick (fun () ->
        let n = 63 * 2 * 2 in
        let hook =
          Plan.pool_hook [ Plan.Fail { chunk = 0; error = Failure "once" } ]
        in
        with_pool ~hook (fun p ->
            ignore (E.Pool.batch_parallel p ~n);
            (* Second job on the same pool: supervision must leave the
               workers healthy. *)
            Alcotest.(check int)
              "second job full length" n
              (Array.length (E.Pool.batch_parallel p ~n))));
  ]

let degrade_tests =
  [
    Alcotest.test_case "corrupted sampler degrades to the CT CDT" `Quick
      (fun () ->
        (* Private compile: the degraded pool keeps the broken program
           alive, so it must not share the lazy master. *)
        let sampler =
          Ctgauss.Sampler.create ~sigma:"2" ~precision:16 ~tail_cut:13 ()
        in
        let _ =
          Plan.corrupt_program ~seed:31L ~flips:3
            (Ctgauss.Sampler.program sampler)
        in
        let pool =
          E.Pool.create ~domains:2 ~chunk_batches:2 ~seed:"degrade" sampler
        in
        Fun.protect
          ~finally:(fun () -> E.Pool.shutdown pool)
          (fun () ->
            Alcotest.(check bool) "degraded" true (E.Pool.degraded pool);
            let n = 63 * 2 * 4 in
            let out = E.Pool.batch_parallel pool ~n in
            let support =
              (Ctgauss.Sampler.matrix sampler).Ctg_kyao.Matrix.support
            in
            Alcotest.(check bool)
              "all samples in support" true
              (Array.for_all (fun x -> abs x <= support) out);
            let mon = E.Pool.ctmon pool in
            Alcotest.(check int)
              "no CT violations" 0
              (Ctg_obs.Ctmon.violations mon);
            (* Degraded mode draws scalar CT-CDT samples, so every sample
               is one declared-fallback "batch". *)
            Alcotest.(check int)
              "every draw declared fallback" n
              (Ctg_obs.Ctmon.fallback_batches mon);
            let s = E.Metrics.snapshot (E.Pool.metrics pool) in
            Alcotest.(check bool) "gauge raised" true s.E.Metrics.degraded));
    Alcotest.test_case "healthy sampler does not degrade" `Quick (fun () ->
        with_pool (fun p ->
            Alcotest.(check bool) "not degraded" false (E.Pool.degraded p)));
  ]

let registry_tests =
  [
    Alcotest.test_case "revalidate evicts a corrupted master" `Quick
      (fun () ->
        let r = E.Registry.create () in
        let get () =
          E.Registry.lookup r ~sigma:"2" ~precision:16 ~tail_cut:13 ()
        in
        let master = get () in
        let _ =
          Plan.corrupt_program ~seed:41L ~flips:1
            (Ctgauss.Sampler.program master)
        in
        (match E.Registry.revalidate r with
        | [ (_, f) ] ->
          Alcotest.(check int) "digest caught it" (-1) f.E.Selftest.index
        | l ->
          Alcotest.fail
            (Printf.sprintf "expected one eviction, got %d" (List.length l)));
        let fresh = get () in
        Alcotest.(check bool) "recompiled" true (fresh != master);
        Alcotest.(check bool) "fresh one passes" true
          (E.Selftest.run fresh = Ok ());
        Alcotest.(check int) "exactly two compiles" 2 (E.Registry.compiles r));
    Alcotest.test_case "post-eviction lookups single-flight the recompile"
      `Quick (fun () ->
        let r = E.Registry.create () in
        let get () =
          E.Registry.lookup r ~sigma:"2" ~precision:16 ~tail_cut:13 ()
        in
        let master = get () in
        let _ =
          Plan.corrupt_program ~seed:43L ~flips:1
            (Ctgauss.Sampler.program master)
        in
        ignore (E.Registry.revalidate r);
        let results = Array.make 4 None in
        let doms =
          List.init 4 (fun i ->
              Domain.spawn (fun () -> results.(i) <- Some (get ())))
        in
        List.iter Domain.join doms;
        let fresh =
          match results.(0) with Some s -> s | None -> Alcotest.fail "missing"
        in
        Array.iter
          (function
            | Some s ->
              Alcotest.(check bool) "same new master" true (s == fresh)
            | None -> Alcotest.fail "missing result")
          results;
        Alcotest.(check bool) "not the corrupted one" true (fresh != master);
        Alcotest.(check int)
          "recompiled exactly once" 2 (E.Registry.compiles r));
  ]

let sign_tests =
  [
    Alcotest.test_case "verify-after-sign rejects a faulted signature"
      `Quick (fun () ->
        let params = F.Params.custom ~n:16 in
        let kp =
          F.Keygen.generate params
            (Bs.of_chacha (Ctg_prng.Chacha20.of_seed "fault-sign-key"))
        in
        let msg = Bytes.of_string "fault sign test" in
        let bound = F.Sign.norm_bound_sq params in
        let verify (s : F.Sign.signature) =
          F.Verify.verify ~params ~h:kp.F.Keygen.h ~bound_sq:bound ~msg
            ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2
        in
        let sign ~check =
          let rng = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "fault-sign") in
          let base = F.Base_sampler.ideal () in
          F.Sign.sign ~fault_hook:(Plan.sign_hook ~seed:51L ~bits:2) ~check kp
            base rng ~msg
        in
        (* The fault must actually matter: unchecked, the corrupted
           signature escapes and fails public verification. *)
        Alcotest.(check bool)
          "unchecked faulted signature is invalid" false
          (verify (sign ~check:false));
        (* Checked, the barrier rejects it and re-signs clean. *)
        let s = sign ~check:true in
        Alcotest.(check bool) "checked signature verifies" true (verify s));
  ]

(* Value faults at the Falcon sigma (215): each bias primitive must move
   the moment it claims to move, in the right direction and by the
   predicted amount.  Paired-stream design: the transform is applied to
   the same clean draws, so the shift estimators are exact differences
   with tiny standard errors and the bands below are many sigmas wide. *)
let value_fault_tests =
  let clean_draws n =
    let matrix = Ctg_kyao.Matrix.create ~sigma:"215" ~precision:16 ~tail_cut:13 in
    let inst =
      Ctg_samplers.Cdt_samplers.linear_ct (Ctg_samplers.Cdt_table.of_matrix matrix)
    in
    let rng = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "value-fault-215") in
    ( matrix,
      Array.init n (fun _ -> Ctg_samplers.Sampler_sig.sample_signed inst rng) )
  in
  let apply fault ~seed xs =
    let f = Plan.value_transform (Plan.value_plan ~seed fault) in
    Array.map f xs
  in
  let mean xs =
    Array.fold_left (fun a x -> a +. float_of_int x) 0.0 xs
    /. float_of_int (Array.length xs)
  in
  let variance xs =
    let m = mean xs in
    Array.fold_left (fun a x -> a +. ((float_of_int x -. m) ** 2.0)) 0.0 xs
    /. float_of_int (Array.length xs)
  in
  let n = 20_000 in
  [
    Alcotest.test_case "center shift moves the mean by delta" `Quick (fun () ->
        let delta = 0.05 in
        let _, clean = clean_draws n in
        let faulted = apply (Plan.Center_shift { delta }) ~seed:21L clean in
        let shift = mean faulted -. mean clean in
        (* Paired estimator: the shift is a Bernoulli(delta) mean with
           SE ~ 0.0015 at this n, so [delta +- 0.02] is > 10 SE wide. *)
        if shift < delta -. 0.02 || shift > delta +. 0.02 then
          Alcotest.failf "mean shift %.4f outside [%.3f, %.3f]" shift
            (delta -. 0.02) (delta +. 0.02));
    Alcotest.test_case "variance deflation shrinks the variance as predicted"
      `Quick (fun () ->
        let p = 0.15 in
        let _, clean = clean_draws n in
        let faulted = apply (Plan.Variance_deflate { p }) ~seed:22L clean in
        let deficit = variance clean -. variance faulted in
        (* Each deflated draw loses 2|x|-1 from the sum of squares, so
           the expected per-sample deficit is p * (2 E|x| - 1). *)
        let mean_abs =
          Array.fold_left (fun a x -> a +. float_of_int (abs x)) 0.0 clean
          /. float_of_int n
        in
        let predicted = p *. ((2.0 *. mean_abs) -. 1.0) in
        Alcotest.(check bool) "variance strictly decreases" true (deficit > 0.0);
        if deficit < 0.6 *. predicted || deficit > 1.4 *. predicted then
          Alcotest.failf "variance deficit %.1f outside [0.6, 1.4] x %.1f"
            deficit predicted);
    Alcotest.test_case "sticky replay sets lag-1 autocorrelation to p" `Quick
      (fun () ->
        let p = 0.25 in
        let _, clean = clean_draws n in
        let faulted = apply (Plan.Sticky { p }) ~seed:23L clean in
        let corr xs =
          let m = mean xs and v = variance xs in
          let acc = ref 0.0 in
          for i = 1 to Array.length xs - 1 do
            acc :=
              !acc
              +. ((float_of_int xs.(i) -. m) *. (float_of_int xs.(i - 1) -. m))
          done;
          !acc /. (float_of_int (Array.length xs - 1) *. v)
        in
        (* A replay chain has corr(y_i, y_{i-1}) = p exactly; SE ~ 0.007
           at this n.  The clean stream must sit near zero. *)
        let r_f = corr faulted and r_c = corr clean in
        Alcotest.(check bool) "clean stream uncorrelated" true (abs_float r_c < 0.05);
        if r_f < p -. 0.1 || r_f > p +. 0.1 then
          Alcotest.failf "lag-1 corr %.3f outside [%.2f, %.2f]" r_f (p -. 0.1)
            (p +. 0.1));
    Alcotest.test_case "outliers land beyond the support at rate p" `Quick
      (fun () ->
        let p = 0.002 in
        let matrix, clean = clean_draws n in
        let magnitude = matrix.Ctg_kyao.Matrix.support + 5 in
        let faulted = apply (Plan.Outlier { p; magnitude }) ~seed:24L clean in
        let beyond =
          Array.fold_left
            (fun a x ->
              if abs x > matrix.Ctg_kyao.Matrix.support then a + 1 else a)
            0 faulted
        in
        Array.iter
          (fun x ->
            if abs x > matrix.Ctg_kyao.Matrix.support && abs x <> magnitude
            then Alcotest.failf "stray out-of-support value %d" x)
          faulted;
        (* Binomial(n, p): mean 40, SD ~ 6.3; [15, 70] is ~4 SD wide. *)
        if beyond < 15 || beyond > 70 then
          Alcotest.failf "%d outliers, expected ~%.0f" beyond
            (float_of_int n *. p));
  ]

let () =
  Alcotest.run "fault"
    [
      ("plan", plan_tests);
      ("selftest", selftest_tests);
      ("health-integration", health_integration_tests);
      ("pool-supervision", pool_tests);
      ("degradation", degrade_tests);
      ("registry", registry_tests);
      ("sign", sign_tests);
      ("value-faults", value_fault_tests);
    ]

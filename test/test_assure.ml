(* Tests for the ctg_assure statistical-assurance layer: sketch merge
   algebra and its domain-count invariance under the engine pool hook,
   the alpha-spending drift monitor (quiet on clean streams, loud on
   biased ones), the background leak assessor with its positive and
   negative controls, monitor verdicts and endpoint routing, the live
   HTTP scrape, and perf-trajectory records. *)

module Sketch = Ctg_assure.Sketch
module Drift = Ctg_assure.Drift
module Leak = Ctg_assure.Leak
module Monitor = Ctg_assure.Monitor
module Trend = Ctg_assure.Trend
module Soak = Ctg_assure.Soak
module Jsonx = Ctg_obs.Jsonx
module Http = Ctg_net.Http
module Promtext = Ctg_obs.Promtext
module Registry = Ctg_obs.Registry
module E = Ctg_engine

(* One cheap shared compile: sigma 2 at 16 bits, the same table the
   engine tests use. *)
let matrix_16 =
  lazy (Ctg_kyao.Matrix.create ~sigma:"2" ~precision:16 ~tail_cut:13)

let sampler_16 =
  lazy (Ctgauss.Sampler.create ~sigma:"2" ~precision:16 ~tail_cut:13 ())

let fresh_stream seed = Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed seed)

(* --------------------------------------------------------------------- *)
(* Sketch *)

let samples_gen = QCheck.(list_of_size Gen.(0 -- 200) (int_range (-30) 30))

let sketch_of xs =
  let s = Sketch.create ~support:20 in
  List.iter (Sketch.add s) xs;
  s

let test_sketch_merge_commutative =
  QCheck.Test.make ~count:200 ~name:"Sketch.merge commutative"
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let a = sketch_of xs and b = sketch_of ys in
      Sketch.equal (Sketch.merge a b) (Sketch.merge b a))

let test_sketch_merge_associative =
  QCheck.Test.make ~count:200 ~name:"Sketch.merge associative"
    QCheck.(triple samples_gen samples_gen samples_gen)
    (fun (xs, ys, zs) ->
      let a = sketch_of xs and b = sketch_of ys and c = sketch_of zs in
      Sketch.equal
        (Sketch.merge (Sketch.merge a b) c)
        (Sketch.merge a (Sketch.merge b c)))

let test_sketch_merge_equals_concat =
  QCheck.Test.make ~count:200 ~name:"Sketch.merge = sketch of concatenation"
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let m = Sketch.merge (sketch_of xs) (sketch_of ys) in
      Sketch.equal m (sketch_of (xs @ ys))
      && Sketch.total m = List.length xs + List.length ys)

(* The unrolled slice fold against one [add] per sample: any slice of any
   length (tails of 0–3 after the four-wide loop) with out-of-range
   magnitudes on both signs. *)
let test_sketch_add_sub_slice =
  QCheck.Test.make ~count:300 ~name:"Sketch.add_sub slice = add per sample"
    QCheck.(triple samples_gen small_nat small_nat)
    (fun (xs, a, b) ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      let s = Sketch.create ~support:20 in
      Sketch.add_sub s arr ~pos ~len;
      let expect = sketch_of (Array.to_list (Array.sub arr pos len)) in
      Sketch.equal s expect
      && Sketch.overflow s = Sketch.overflow expect
      && Sketch.observed s = Sketch.observed expect)

let test_sketch_accounting () =
  let s = Sketch.create ~support:4 in
  Sketch.add_all s [| 0; -3; 3; 4; -25; 25 |];
  Alcotest.(check int) "total" 6 (Sketch.total s);
  Alcotest.(check int) "overflow" 2 (Sketch.overflow s);
  Alcotest.(check int) "signs fold" 2 (Sketch.count s 3);
  let obs = Sketch.observed s in
  Alcotest.(check int) "observed length = support + 2" 6 (Array.length obs);
  Alcotest.(check int) "observed conserves total" (Sketch.total s)
    (Array.fold_left ( + ) 0 obs);
  let emp = Sketch.empirical s in
  Alcotest.(check (float 1e-12)) "empirical excludes overflow"
    (4.0 /. 6.0)
    (Array.fold_left ( +. ) 0.0 emp);
  Alcotest.check_raises "support mismatch"
    (Invalid_argument "Sketch.merge: support mismatch") (fun () ->
      ignore (Sketch.merge s (Sketch.create ~support:7)));
  Sketch.reset s;
  Alcotest.(check int) "reset clears" 0 (Sketch.total s);
  Alcotest.(check bool) "reset equals fresh" true
    (Sketch.equal s (Sketch.create ~support:4))

(* The property the engine hook leans on: per-chunk sketches merged in
   whatever order the worker domains finish equal the single-domain
   sketch of the same deterministic stream. *)
let test_sketch_pool_domain_invariance () =
  let support = (Lazy.force matrix_16).Ctg_kyao.Matrix.support in
  let sketch_from_pool ~domains =
    let pool =
      E.Pool.create ~domains ~chunk_batches:4 ~seed:"assure-merge"
        (Ctgauss.Sampler.clone (Lazy.force sampler_16))
    in
    Fun.protect
      ~finally:(fun () -> E.Pool.shutdown pool)
      (fun () ->
        let m = Mutex.create () in
        let per_chunk = ref [] in
        E.Pool.add_chunk_observer pool (fun ~chunk:_ ~lane:_ samples ->
            let s = Sketch.create ~support in
            Sketch.add_all s samples;
            Mutex.lock m;
            per_chunk := s :: !per_chunk;
            Mutex.unlock m);
        ignore (E.Pool.batch_parallel pool ~n:5_000);
        List.fold_left Sketch.merge (Sketch.create ~support) !per_chunk)
  in
  let s1 = sketch_from_pool ~domains:1 in
  let s3 = sketch_from_pool ~domains:3 in
  Alcotest.(check int) "every sample observed once" 5_000 (Sketch.total s1);
  Alcotest.(check bool) "1-domain and 3-domain sketches identical" true
    (Sketch.equal s1 s3)

(* --------------------------------------------------------------------- *)
(* Drift *)

let test_alpha_spending () =
  let alpha = 0.01 in
  let sum = ref 0.0 in
  for k = 1 to 10_000 do
    sum := !sum +. Drift.alpha_at ~alpha k
  done;
  Alcotest.(check bool) "schedule spends below alpha" true (!sum < alpha);
  Alcotest.(check bool) "close to the full budget" true (!sum > 0.99 *. alpha);
  Alcotest.(check (float 1e-15)) "window 1 gets alpha/2" (alpha /. 2.0)
    (Drift.alpha_at ~alpha 1);
  for k = 1 to 99 do
    Alcotest.(check bool) "strictly decreasing" true
      (Drift.alpha_at ~alpha k > Drift.alpha_at ~alpha (k + 1))
  done

let drift_config window = { Drift.default_config with Drift.window }

let test_drift_quiet_on_clean_stream () =
  let registry = Registry.create () in
  let d =
    Drift.create ~config:(drift_config 2_000) ~registry
      ~labels:[ ("sigma", "2") ]
      ~matrix:(Lazy.force matrix_16) ()
  in
  let s = Ctgauss.Sampler.clone (Lazy.force sampler_16) in
  let bs = fresh_stream "assure-clean-drift" in
  (* 160 batches of 63 = 10_080 samples = 5 full windows. *)
  for _ = 1 to 160 do
    Drift.observe d (Ctgauss.Sampler.batch_signed s bs)
  done;
  Alcotest.(check int) "five windows evaluated" 5 (Drift.windows d);
  Alcotest.(check int) "no false alarm" 0 (Drift.alarms d);
  Alcotest.(check int) "all samples counted" 10_080 (Drift.samples d);
  (match Drift.last d with
  | None -> Alcotest.fail "no window result retained"
  | Some r ->
    Alcotest.(check bool) "p-value above threshold" true
      (r.Drift.p_value >= r.Drift.alpha_k);
    Alcotest.(check bool) "max-log finite" true (Float.is_finite r.Drift.max_log);
    Alcotest.(check bool) "renyi finite" true (Float.is_finite r.Drift.renyi));
  Alcotest.(check int) "results retained oldest-first" 5
    (List.length (Drift.results d));
  (* The gauges landed on the registry under the sigma label. *)
  (match Promtext.parse (Registry.expose_text registry) with
  | Error e -> Alcotest.failf "metrics text unparseable: %s" e
  | Ok items ->
    Alcotest.(check (option (float 1e-9))) "windows counter" (Some 5.0)
      (Promtext.value items ~name:"assure_drift_windows_total"
         ~labels:[ ("sigma", "2") ]);
    Alcotest.(check (option (float 1e-9))) "alarms counter" (Some 0.0)
      (Promtext.value items ~name:"assure_drift_alarms_total"
         ~labels:[ ("sigma", "2") ]));
  (* Cumulative sketch survives window resets. *)
  Alcotest.(check int) "cumulative keeps everything" 10_080
    (Sketch.total (Drift.cumulative d))

let test_drift_alarms_on_biased_stream () =
  let d =
    Drift.create ~config:(drift_config 1_000)
      ~matrix:(Lazy.force matrix_16) ()
  in
  (* A stuck-at-zero sampler: every draw has magnitude 0.  The very first
     window must trip even the k=1 spending threshold. *)
  Drift.observe d (Array.make 1_000 0);
  Alcotest.(check int) "one window" 1 (Drift.windows d);
  Alcotest.(check int) "alarmed immediately" 1 (Drift.alarms d);
  match Drift.last d with
  | None -> Alcotest.fail "no result"
  | Some r ->
    Alcotest.(check bool) "alarm flag" true r.Drift.alarm;
    Alcotest.(check bool) "p-value collapsed" true
      (r.Drift.p_value < r.Drift.alpha_k);
    Alcotest.(check bool) "json serializes" true
      (String.length (Jsonx.to_string (Drift.result_json r)) > 0)

let test_drift_flush_partial_window () =
  let d =
    Drift.create ~config:(drift_config 10_000)
      ~matrix:(Lazy.force matrix_16) ()
  in
  Alcotest.(check bool) "empty flush is None" true (Drift.flush d = None);
  let s = Ctgauss.Sampler.clone (Lazy.force sampler_16) in
  let bs = fresh_stream "assure-flush" in
  for _ = 1 to 10 do
    Drift.observe d (Ctgauss.Sampler.batch_signed s bs)
  done;
  Alcotest.(check int) "window not yet full" 0 (Drift.windows d);
  (match Drift.flush d with
  | None -> Alcotest.fail "flush dropped the partial window"
  | Some r -> Alcotest.(check int) "partial size" 630 r.Drift.n);
  Alcotest.(check int) "flush spent a window" 1 (Drift.windows d)

(* --------------------------------------------------------------------- *)
(* Leak *)

let test_leak_positive_control () =
  (* The Knuth-Yao reference walk consumes input-dependent bit counts —
     the assessor must flag it. *)
  let inst =
    Ctg_samplers.Sampler_sig.knuth_yao_reference (Lazy.force matrix_16)
  in
  let l = Leak.create ~probe:(Leak.ops_probe inst) () in
  Leak.step ~n:4_000 l;
  let r = Leak.report l in
  Alcotest.(check bool) "reference walk is flagged" true
    r.Ctg_ctcheck.Dudect.leaky;
  Alcotest.(check int) "count advances" 4_000 (Leak.count l)

let test_leak_negative_control () =
  (* The bitsliced batch consumes a fixed bit budget regardless of input:
     the probe measure is constant, |t| stays under threshold. *)
  let registry = Registry.create () in
  let l =
    Leak.create ~registry
      ~labels:[ ("sigma", "2") ]
      ~probe:(Soak.batch_bits_probe (Ctgauss.Sampler.clone (Lazy.force sampler_16)))
      ()
  in
  Leak.step ~n:2_000 l;
  let r = Leak.report l in
  Alcotest.(check bool) "CT sampler is clean" false r.Ctg_ctcheck.Dudect.leaky;
  Alcotest.(check bool) "|t| under threshold" true
    (abs_float r.Ctg_ctcheck.Dudect.t_statistic <= 4.5);
  match Promtext.parse (Registry.expose_text registry) with
  | Error e -> Alcotest.failf "metrics text unparseable: %s" e
  | Ok items ->
    Alcotest.(check bool) "assure_leak_t gauge published" true
      (Promtext.value items ~name:"assure_leak_t" ~labels:[ ("sigma", "2") ]
      <> None)

(* --------------------------------------------------------------------- *)
(* Monitor + routes *)

let test_monitor_verdict_and_routes () =
  let registry = Registry.create () in
  let mon =
    Monitor.create ~config:(drift_config 1_000) ~registry
      ~matrix:(Lazy.force matrix_16) ()
  in
  Alcotest.(check bool) "healthy at rest" true (Monitor.healthy mon);
  (match Jsonx.parse (Jsonx.to_string (Monitor.healthz_json mon)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "healthz json: %s" e);
  let routes = Monitor.routes mon ~registry in
  let metrics = Http.handle ~routes "/metrics" in
  Alcotest.(check int) "metrics 200" 200 metrics.Http.status;
  (match Promtext.parse metrics.Http.body with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "/metrics body: %s" e);
  let healthz = Http.handle ~routes "/healthz" in
  Alcotest.(check int) "healthz 200 while healthy" 200 healthz.Http.status;
  Alcotest.(check int) "unknown path 404" 404
    (Http.handle ~routes "/nope").Http.status;
  Alcotest.(check int) "query string stripped" 200
    (Http.handle ~routes "/metrics?x=1").Http.status;
  Alcotest.(check int) "POST rejected" 405
    (Http.handle_request ~routes "POST /metrics HTTP/1.1\r\n\r\n").Http.status;
  Alcotest.(check int) "garbage rejected" 400
    (Http.handle_request ~routes "no-request-line").Http.status;
  (* Trip the drift monitor; the verdict and /healthz must flip. *)
  Drift.observe (Monitor.drift mon) (Array.make 1_000 0);
  Alcotest.(check bool) "failing after alarm" false (Monitor.healthy mon);
  (match Monitor.verdict mon with
  | Monitor.Healthy -> Alcotest.fail "verdict still healthy"
  | Monitor.Failing reasons ->
    Alcotest.(check bool) "reason recorded" true (List.length reasons > 0));
  Alcotest.(check int) "healthz 503 when failing" 503
    (Http.handle ~routes "/healthz").Http.status;
  match Jsonx.parse (Jsonx.to_string (Monitor.drift_json mon)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "drift json: %s" e

let test_http_live_scrape () =
  let registry = Registry.create () in
  Registry.add (Registry.counter registry "assure_scrape_total") 7;
  let routes =
    [ ("/metrics", fun () -> Http.response (Registry.expose_text registry)) ]
  in
  let srv = Http.start ~port:0 ~routes () in
  Fun.protect
    ~finally:(fun () -> Http.stop srv)
    (fun () ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect sock
            (Unix.ADDR_INET (Unix.inet_addr_loopback, Http.port srv));
          let req =
            "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
          in
          ignore (Unix.write_substring sock req 0 (String.length req));
          let buf = Buffer.create 1024 in
          let chunk = Bytes.create 4096 in
          let rec drain () =
            let n = Unix.read sock chunk 0 (Bytes.length chunk) in
            if n > 0 then begin
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
            end
          in
          drain ();
          let raw = Buffer.contents buf in
          Alcotest.(check bool) "status 200" true
            (String.starts_with ~prefix:"HTTP/1.1 200" raw);
          let body =
            (* split at the header/body blank line *)
            let rec find i =
              if i + 4 > String.length raw then
                Alcotest.fail "no header terminator in response"
              else if String.sub raw i 4 = "\r\n\r\n" then
                String.sub raw (i + 4) (String.length raw - i - 4)
              else find (i + 1)
            in
            find 0
          in
          match Promtext.parse body with
          | Error e -> Alcotest.failf "scraped body unparseable: %s" e
          | Ok items ->
            Alcotest.(check (option (float 1e-9))) "counter scraped" (Some 7.0)
              (Promtext.value items ~name:"assure_scrape_total" ~labels:[])))

(* A short end-to-end soak at tiny batch size: engine pool feeding the
   drift monitor through the chunk hook, leak probes interleaved. *)
let test_soak_smoke () =
  let soak =
    Soak.create
      ~drift_config:(drift_config 2_000)
      ~domains:2 ~batch:(63 * 32) ~leak_steps:32 ~sigma:"2" ~precision:16
      ~tail_cut:13 ()
  in
  Fun.protect
    ~finally:(fun () -> Soak.shutdown soak)
    (fun () ->
      for _ = 1 to 2 do
        Soak.tick soak
      done;
      Alcotest.(check int) "two ticks" 2 (Soak.ticks soak);
      Alcotest.(check int) "samples accounted" (2 * 63 * 32) (Soak.samples soak);
      Alcotest.(check int) "drift fed through the pool hook" (2 * 63 * 32)
        (Drift.samples (Monitor.drift (Soak.monitor soak)));
      Alcotest.(check bool) "windows evaluated" true
        (Drift.windows (Monitor.drift (Soak.monitor soak)) >= 1);
      Alcotest.(check bool) "healthy" true (Monitor.healthy (Soak.monitor soak));
      let metrics = Http.handle ~routes:(Soak.routes soak) "/metrics" in
      Alcotest.(check int) "soak /metrics" 200 metrics.Http.status)

(* --------------------------------------------------------------------- *)
(* Trend *)

let fp = { Trend.host = "ci-1"; ocaml_version = "5.2.0"; word_size = 64; domains = 8 }

let base_record =
  {
    Trend.time = "2026-08-06T00:00:00Z";
    fp;
    metrics =
      [
        ("BENCH_x.json.entries[sigma=2].plain_ns", 100.0);
        ("BENCH_x.json.entries[sigma=2].accuracy", 0.5);
      ];
  }

let current_record =
  {
    base_record with
    Trend.time = "2026-08-06T01:00:00Z";
    metrics =
      [
        ("BENCH_x.json.entries[sigma=2].plain_ns", 140.0);
        ("BENCH_x.json.entries[sigma=2].accuracy", 0.9);
      ];
  }

let test_trend_json_roundtrip () =
  match Trend.of_json (Trend.to_json base_record) with
  | Some r -> Alcotest.(check bool) "roundtrip" true (r = base_record)
  | None -> Alcotest.fail "of_json rejected to_json output"

let test_trend_baseline_matching () =
  let other_host = { base_record with Trend.fp = { fp with Trend.host = "laptop" } } in
  Alcotest.(check bool) "same fingerprint wins" true
    (Trend.baseline_for fp [ other_host; base_record ] = Some base_record);
  Alcotest.(check bool) "most recent wins" true
    (Trend.baseline_for fp [ base_record; current_record ] = Some current_record);
  Alcotest.(check bool) "no match -> None" true
    (Trend.baseline_for { fp with Trend.domains = 4 } [ base_record ] = None)

let test_trend_regression_gate () =
  let ds = Trend.deltas ~baseline:base_record current_record in
  Alcotest.(check int) "both metrics compared" 2 (List.length ds);
  Alcotest.(check bool) "latency key classifier" true
    (Trend.is_latency_key "a.plain_ns"
    && Trend.is_latency_key "b.metered_ns_per_sample"
    && not (Trend.is_latency_key "a.accuracy"));
  (* plain_ns grew 40%: gates at 25% tolerance; accuracy grew 80% but is
     not a latency key and must not gate. *)
  (match Trend.regressions ~tolerance_pct:25.0 ~baseline:base_record current_record with
  | [ d ] ->
    Alcotest.(check string) "the ns key gates"
      "BENCH_x.json.entries[sigma=2].plain_ns" d.Trend.key;
    Alcotest.(check (float 1e-9)) "pct" 40.0 d.Trend.pct
  | l -> Alcotest.failf "expected one regression, got %d" (List.length l));
  Alcotest.(check int) "looser tolerance passes" 0
    (List.length
       (Trend.regressions ~tolerance_pct:50.0 ~baseline:base_record
          current_record))

let test_trend_append_load () =
  let path = Filename.temp_file "assure_history" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      Alcotest.(check int) "absent file loads empty" 0
        (List.length (Trend.load ~path));
      Trend.append ~path base_record;
      Trend.append ~path current_record;
      let records = Trend.load ~path in
      Alcotest.(check bool) "file order, oldest first" true
        (records = [ base_record; current_record ]);
      Alcotest.(check bool) "baseline over the file" true
        (Trend.baseline_for fp records = Some current_record);
      (* A malformed line is skipped, not fatal. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "not json\n";
      close_out oc;
      Trend.append ~path base_record;
      Alcotest.(check int) "malformed lines skipped" 3
        (List.length (Trend.load ~path)))

let test_trend_collect_live () =
  (* Collect over the repo baselines: must produce a sane fingerprint and
     only finite metric values. *)
  let r = Trend.collect ~dir:"." () in
  let live = Trend.fingerprint () in
  Alcotest.(check bool) "fingerprint is current" true (r.Trend.fp = live);
  Alcotest.(check bool) "word size sane" true
    (live.Trend.word_size = 64 || live.Trend.word_size = 32);
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool) (k ^ " finite") true (Float.is_finite v))
    r.Trend.metrics

(* --------------------------------------------------------------------- *)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "assure"
    [
      ( "sketch",
        qcheck
          [
            test_sketch_merge_commutative;
            test_sketch_merge_associative;
            test_sketch_merge_equals_concat;
          ]
        @ [
            Alcotest.test_case "accounting and edges" `Quick
              test_sketch_accounting;
            Alcotest.test_case "pool-fed merge is domain-invariant" `Quick
              test_sketch_pool_domain_invariance;
          ]
        @ qcheck [ test_sketch_add_sub_slice ] );
      ( "drift",
        [
          Alcotest.test_case "alpha-spending schedule" `Quick
            test_alpha_spending;
          Alcotest.test_case "quiet on a clean stream" `Quick
            test_drift_quiet_on_clean_stream;
          Alcotest.test_case "alarms on a biased stream" `Quick
            test_drift_alarms_on_biased_stream;
          Alcotest.test_case "flush evaluates the partial window" `Quick
            test_drift_flush_partial_window;
        ] );
      ( "leak",
        [
          Alcotest.test_case "positive control: reference walk" `Quick
            test_leak_positive_control;
          Alcotest.test_case "negative control: bitsliced batch" `Quick
            test_leak_negative_control;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "verdict and endpoint routes" `Quick
            test_monitor_verdict_and_routes;
          Alcotest.test_case "live HTTP scrape" `Quick test_http_live_scrape;
          Alcotest.test_case "soak smoke" `Quick test_soak_smoke;
        ] );
      ( "trend",
        [
          Alcotest.test_case "record JSON roundtrip" `Quick
            test_trend_json_roundtrip;
          Alcotest.test_case "baseline fingerprint matching" `Quick
            test_trend_baseline_matching;
          Alcotest.test_case "regression gate" `Quick
            test_trend_regression_gate;
          Alcotest.test_case "append and load history" `Quick
            test_trend_append_load;
          Alcotest.test_case "collect over repo baselines" `Quick
            test_trend_collect_live;
        ] );
    ]

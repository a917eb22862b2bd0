(* The overhead gates, one row each.  Every arm shares the harness's
   paired-pass estimator; a row only says what its arms run and what it
   reads around the timing.  Seeds and JSON field names are the ones the
   committed BENCH baselines and the Trend history were written with. *)

module H = Harness
module Obs = Ctg_obs
module Jsonx = Obs.Jsonx
module Engine = Ctg_engine
module F = Ctg_falcon
module Rtev = Ctg_rtev.Rtev

let int n = Jsonx.Num (float_of_int n)
let str s = Jsonx.Str s

let sampler ~sigma ~precision =
  Ctgauss.Sampler.clone
    (Engine.Registry.lookup Engine.Registry.global ~sigma ~precision
       ~tail_cut:13 ())

(* Health tests off unless an arm is about them: each gate isolates its
   own layer's cost. *)
let lane_rng ?(health = false) seed lane =
  Engine.Stream_fork.bitstream ~health ~seed ~lane ()

(* The plain fill loop every fill-based gate uses as its baseline. *)
let fill sampler out rng =
  Ctgauss.Sampler.fill sampler rng out ~pos:0 ~len:(Array.length out)

let chunk_samples = 16 * Ctgauss.Bitslice.lanes

let arm ?(traced = false) ns pct run = { H.ns; pct; traced; run }

let per_sigma f (s : H.sizes) =
  List.map (fun (sigma, precision) () -> f s ~sigma ~precision) s.set

let row ~name ~benchmark ~threshold_pct ?(attempts = 4)
    ?(smoke_set = [ ("2", 16); ("215", 16) ]) ?(checks = [])
    ?(available = fun () -> true) ?(extras = fun () -> []) cases =
  {
    H.name;
    benchmark;
    threshold_pct;
    attempts;
    smoke_set;
    checks;
    available;
    cases;
    extras;
  }

(* ---- obs: metrics + CT monitor (and tracing) on the fill loop ---- *)

(* The production loop of [Pool.run_chunk]: {!Pool.fill_chunk} per chunk,
   inside the chunk span (a no-op unless the traced arm enables it). *)
let run_metered sampler out rng ~metrics ~ctmon =
  let n = Array.length out in
  let gate_count = Ctgauss.Sampler.gate_count sampler in
  let pos = ref 0 in
  while !pos < n do
    let len = if n - !pos < chunk_samples then n - !pos else chunk_samples in
    let fill () =
      Engine.Pool.fill_chunk ~metrics ~ctmon ~domain:0 ~gate_count sampler rng
        out ~pos:!pos ~len
    in
    if not (Obs.Trace.is_enabled ()) then fill ()
    else
      Obs.Trace.with_span "chunk" ~cat:"engine"
        ~args:(fun () -> [ ("samples", string_of_int len) ])
        fill;
    pos := !pos + len
  done

let obs_case (s : H.sizes) ~sigma ~precision =
  let sampler = sampler ~sigma ~precision in
  let labels = [ ("sigma", sigma); ("sampler", "bitsliced") ] in
  let metrics = Engine.Metrics.create ~domains:1 ~labels () in
  let ctmon =
    Obs.Ctmon.create ~registry:(Engine.Metrics.registry metrics) ~labels ()
  in
  let out = Array.make s.samples 0 and rng = lane_rng ("obs-bench-" ^ sigma) in
  let warm = rng 1000 in
  fill sampler out warm;
  run_metered sampler out warm ~metrics ~ctmon;
  let metered ~lane = run_metered sampler out (rng lane) ~metrics ~ctmon in
  {
    H.head =
      [
        ("sigma", str sigma);
        ("precision", int precision);
        ("gates", int (Ctgauss.Sampler.gate_count sampler));
        ("samples", int s.samples);
      ];
    ops = s.samples;
    base = ("plain_ns_per_sample", fun ~lane -> fill sampler out (rng lane));
    arms =
      [
        arm "metered_ns_per_sample" "overhead_pct" metered;
        arm ~traced:true "traced_ns_per_sample" "traced_overhead_pct" metered;
      ];
    tail =
      (fun () ->
        [
          ("ct_violations", int (Obs.Ctmon.violations ctmon));
          ("fallback_batches", int (Obs.Ctmon.fallback_batches ctmon));
          ("entropy_bits_per_sample", Num (Obs.Ctmon.entropy_bits_per_sample ctmon));
        ]);
  }

let obs =
  row ~name:"obs" ~benchmark:"obs-overhead" ~threshold_pct:2.0
    ~checks:[ ("ct_violations", fun v -> v = 0.0) ]
    (per_sigma obs_case)

(* ---- alloc: allocation baselines + the profiling arm ---- *)

(* Words allocated on this domain by [f]: minor + major direct, minus the
   promoted words that both counters saw.  [Gc.full_major] first so
   collector debt inherited from the caller doesn't promote mid-window.
   Single-domain throughout: [Gc.counters] is per-domain, so a pool
   fan-out would silently under-count. *)
let alloc_words f =
  Gc.full_major ();
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

let words_per_signature ~msgs =
  let kp =
    F.Keygen.generate (F.Params.custom ~n:64)
      (Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed "alloc-bench-key"))
  in
  let master = sampler ~sigma:"2" ~precision:16 in
  let sign lane =
    let base =
      F.Base_sampler.of_instance
        (Ctg_samplers.Sampler_sig.of_bitsliced (Ctgauss.Sampler.clone master))
    in
    ignore
      (F.Sign.sign ~check:false kp base (lane_rng "alloc-bench-sign" lane)
         ~msg:(Bytes.of_string "alloc"))
  in
  (* Warm once (first call pays one-time setup allocations). *)
  sign 1000;
  alloc_words (fun () ->
      for lane = 0 to msgs - 1 do
        sign lane
      done)
  /. float_of_int msgs

(* The profiling arm is the tracing toggle: with Prof enabled (against a
   scratch registry) Gc capture rides on tracing, so the traced arm runs
   the whole profiling chain and the baseline the untouched fast path. *)
let alloc_case (s : H.sizes) ~sigma ~precision =
  let sampler = sampler ~sigma ~precision in
  let out = Array.make s.samples 0 and rng = lane_rng ("alloc-bench-" ^ sigma) in
  fill sampler out (rng 1000);
  let wps =
    alloc_words (fun () -> fill sampler out (rng 1001)) /. float_of_int s.samples
  in
  let msgs = if s.smoke then 8 else 16 in
  let wsig = words_per_signature ~msgs in
  Ctg_prof.Prof.enable ~registry:(Obs.Registry.create ()) ();
  Ctg_prof.Prof.reset ();
  let was_tracing = Obs.Trace.is_enabled () in
  Obs.Trace.disable ();
  let run ~lane = fill sampler out (rng lane) in
  {
    H.head =
      [
        ("sigma", str sigma);
        ("precision", int precision);
        ("samples", int s.samples);
        ("msgs", int msgs);
        ("alloc_words_per_sample", Num wps);
        ("alloc_words_per_signature", Num wsig);
      ];
    ops = s.samples;
    base = ("plain_ns_per_sample", run);
    arms = [ arm ~traced:true "prof_ns_per_sample" "prof_overhead_pct" run ];
    tail =
      (fun () ->
        Ctg_prof.Prof.disable ();
        if was_tracing then Obs.Trace.enable () else Obs.Trace.disable ();
        []);
  }

let alloc =
  row ~name:"alloc" ~benchmark:"alloc-profile" ~threshold_pct:3.0
    ~checks:
      [
        ("alloc_words_per_sample", fun v -> v >= 0.0);
        ("alloc_words_per_signature", fun v -> v >= 0.0);
      ]
    (per_sigma alloc_case)

(* ---- fault: entropy health tests and verify-after-sign ---- *)

(* SP 800-90B health tests attached to every PRNG lane: both arms run the
   identical fill over the same fork lane and differ only in whether
   {!Ctg_prng.Health} rides on the stream. *)
let health_case (s : H.sizes) ~sigma ~precision =
  let sampler = sampler ~sigma ~precision in
  let out = Array.make s.samples 0 in
  let seed = "fault-bench-" ^ sigma in
  fill sampler out (lane_rng seed 1000);
  fill sampler out (lane_rng ~health:true seed 1001);
  {
    H.head =
      [ ("defense", str "entropy-health"); ("sigma", str sigma);
        ("samples", int s.samples) ];
    ops = s.samples;
    base = ("plain_ns", fun ~lane -> fill sampler out (lane_rng seed lane));
    arms =
      [
        arm "hardened_ns" "overhead_pct" (fun ~lane ->
            fill sampler out (lane_rng ~health:true seed lane));
      ];
    tail = (fun () -> []);
  }

(* Verify-after-sign: arms differ only in [?check]; each pass signs the
   same messages from the same lane. *)
let sign_case () =
  let signatures = 32 in
  let kp =
    F.Keygen.generate (F.Params.custom ~n:64)
      (Engine.Stream_fork.bitstream ~seed:"fault-bench-keygen" ~lane:0 ())
  in
  let msg = Bytes.of_string "fault bench message" in
  let pass ~check ~lane =
    let rng = Engine.Stream_fork.bitstream ~seed:"fault-bench-sign" ~lane () in
    let base = F.Base_sampler.ideal () in
    for _ = 1 to signatures do
      ignore (F.Sign.sign ~check kp base rng ~msg)
    done
  in
  pass ~check:false ~lane:1000;
  pass ~check:true ~lane:1001;
  {
    H.head =
      [ ("defense", str "verify-after-sign"); ("sigma", str "-");
        ("samples", int signatures) ];
    ops = signatures;
    base = ("plain_ns", pass ~check:false);
    arms = [ arm "hardened_ns" "overhead_pct" (pass ~check:true) ];
    tail = (fun () -> []);
  }

let fault =
  row ~name:"fault" ~benchmark:"fault-defense-overhead" ~threshold_pct:3.0
    (fun s -> per_sigma health_case s @ [ sign_case ])

(* ---- assure: the always-on drift monitor ---- *)

(* What the pool does once the drift monitor is attached: fill a chunk,
   then fold it into the monitor under its mutex.  Window evaluations
   that fall inside the pass are part of the measured cost — that is the
   always-on price. *)
let fill_monitored sampler drift out rng =
  let n = Array.length out in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk_samples (n - !pos) in
    Ctgauss.Sampler.fill sampler rng out ~pos:!pos ~len;
    Ctg_assure.Drift.observe_sub drift out ~pos:!pos ~len;
    pos := !pos + len
  done

let assure_case (s : H.sizes) ~sigma ~precision =
  let sampler = sampler ~sigma ~precision in
  let drift =
    Ctg_assure.Drift.create ~registry:(Obs.Registry.create ())
      ~labels:[ ("sigma", sigma) ]
      ~matrix:(Ctgauss.Sampler.matrix sampler)
      ()
  in
  (* [out] after the monitor: the σ=215 reading was ~0.3 points higher
     with the other allocation order. *)
  let out = Array.make s.samples 0 and rng = lane_rng ("assure-bench-" ^ sigma) in
  let warm = rng 1000 in
  fill sampler out warm;
  fill_monitored sampler drift out warm;
  {
    H.head =
      [
        ("sigma", str sigma);
        ("precision", int precision);
        ("gates", int (Ctgauss.Sampler.gate_count sampler));
        ("samples", int s.samples);
      ];
    ops = s.samples;
    base = ("plain_ns", fun ~lane -> fill sampler out (rng lane));
    arms =
      [
        arm "monitored_ns" "overhead_pct" (fun ~lane ->
            fill_monitored sampler drift out (rng lane));
      ];
    tail =
      (fun () ->
        [
          ("windows", int (Ctg_assure.Drift.windows drift));
          ("alarms", int (Ctg_assure.Drift.alarms drift));
        ]);
  }

(* Smoke keeps the production precision for σ=2: a 16-bit σ=2 table fills
   so fast that any fixed per-chunk cost looks large against the budget,
   and it is not a configuration the committed baseline gates. *)
let assure =
  row ~name:"assure" ~benchmark:"drift-monitor-overhead" ~threshold_pct:3.0
    ~attempts:6
    ~smoke_set:[ ("2", 128); ("215", 16) ]
    ~checks:[ ("alarms", fun v -> v = 0.0) ]
    (per_sigma assure_case)

(* ---- pauses: GC pause baselines + the rtev consumer ---- *)

(* The pause window repeats the fill (fresh fork lane per rep) until
   [min_pauses] pauses landed or 60 reps ran, then forces one [Gc.compact]
   so every σ records a deterministic stop-the-world pause.  The fill
   allocates nothing, so at σ ∈ {1, 2, 6.15543} that compaction is the
   only pause and [pause_p50_ns] = [pause_p99_ns] is its duration; only
   σ=215's fallback walk records organic minor pauses.  [pause_max] and
   [total_pause] are deliberately not [_ns]-suffixed: one compaction
   dominates them, too noisy for the Trend gate. *)
let pauses_case (s : H.sizes) ~sigma ~precision =
  let sampler = sampler ~sigma ~precision in
  let out = Array.make s.samples 0 and rng = lane_rng ("pause-bench-" ^ sigma) in
  let fill_lane lane = fill sampler out (rng lane) in
  fill_lane 1000;
  let min_pauses = if s.smoke then 5 else 30 in
  let h = Obs.Histo.create () and minors = ref 0 in
  Rtev.resume_collection ();
  ignore (Rtev.poll ());
  (* Drained: from here the observer sees only this window's pauses. *)
  Rtev.set_pause_observer
    (Some
       (fun (p : Rtev.Decode.pause) ->
         if p.minor then incr minors;
         Obs.Histo.add h p.dur_ns));
  let t0 = Obs.Clock.now_ns () in
  let reps = ref 0 in
  while Obs.Histo.count h < min_pauses && !reps < 60 do
    fill_lane !reps;
    ignore (Rtev.poll ());
    incr reps
  done;
  Gc.compact ();
  ignore (Rtev.poll ());
  let wall = max 1 (Obs.Clock.now_ns () - t0) in
  Rtev.set_pause_observer None;
  let p = Obs.Histo.summary h in
  {
    H.head =
      [
        ("sigma", str sigma);
        ("precision", int precision);
        ("samples", int s.samples);
        ("reps", int !reps);
        ("pauses", int p.count);
        ("minor_pauses", int !minors);
        ("pause_p50_ns", int (Obs.Histo.quantile h 0.5));
        ("pause_p99_ns", int (Obs.Histo.quantile h 0.99));
        ("pause_max", int p.max);
        ("total_pause", int p.sum);
        ("pause_pct", Num (100.0 *. float_of_int p.sum /. float_of_int wall));
      ];
    ops = s.samples;
    base =
      ( "plain_ns_per_sample",
        fun ~lane ->
          Rtev.suspend_collection ();
          fill_lane lane );
    arms =
      [
        arm "rtev_ns_per_sample" "rtev_overhead_pct" (fun ~lane ->
            Rtev.resume_collection ();
            fill_lane lane;
            ignore (Rtev.poll ()));
      ];
    tail =
      (fun () ->
        Rtev.resume_collection ();
        []);
  }

(* The daemon-under-load row: the signing daemon with rtev on, driven by
   concurrent HTTP clients, then the pause-charged serving split read back
   out of its registry.  Advisory only — none of its keys are
   [_ns]-suffixed, a loaded daemon's pause total is too run-shaped to
   trend-gate. *)
let daemon_row () =
  let module Daemon = Ctg_serve.Daemon in
  let module Client = Ctg_net.Client in
  let d =
    Daemon.create
      {
        Daemon.default_config with
        port = 0;
        rtev = true;
        linger = 0.005;
        max_batch = 8;
      }
  in
  if not (Daemon.rtev_active d) then begin
    Daemon.stop d;
    []
  end
  else begin
    let port = Daemon.port d in
    let workers =
      Array.init 2 (fun t ->
          Domain.spawn (fun () ->
              let tenant = Printf.sprintf "pause-t%d" t in
              let c = Client.connect ~port () in
              for i = 0 to 7 do
                let r =
                  Client.request c ~meth:"POST"
                    ~path:("/v1/sign?tenant=" ^ tenant)
                    ~body:(Printf.sprintf "%s-%d" tenant i)
                    ()
                in
                if r.Client.status <> 200 then
                  failwith (Printf.sprintf "sign -> %d" r.Client.status)
              done;
              Client.close c))
    in
    Array.iter Domain.join workers;
    (* One forced major collection while the daemon is still up, so the
       row always carries a nonzero pause. *)
    Gc.compact ();
    ignore (Rtev.poll ());
    let registry = Daemon.registry d in
    let summary name =
      Obs.Registry.histo_summary (Obs.Registry.histo registry name)
    in
    let serve = summary "serve_gc_pause_ns" and pause = summary "gc_pause_ns" in
    let requests = Daemon.requests d and batches = Daemon.batches d in
    Daemon.stop d;
    [
      ( "daemon",
        Jsonx.Obj
          [
            ("requests", int requests);
            ("batches", int batches);
            ("gc_pauses", int pause.Obs.Histo.count);
            ("gc_pause_total", int pause.sum);
            ("gc_pause_max", int pause.max);
            ("serve_batches_observed", int serve.count);
            ("serve_pause_total", int serve.sum);
            ("serve_pause_max", int serve.max);
          ] );
    ]
  end

let pauses =
  row ~name:"pauses" ~benchmark:"gc-pauses" ~threshold_pct:3.0
    ~smoke_set:[ ("2", 128); ("215", 16) ]
    ~checks:[ ("pauses", fun v -> v > 0.0) ]
    ~available:(fun () -> Rtev.start ())
    ~extras:daemon_row
    (per_sigma pauses_case)

let all = [ obs; alloc; fault; assure; pauses ]
let find name = List.find_opt (fun (r : H.row) -> r.name = name) all

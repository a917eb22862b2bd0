(* ctg_stats: the observability companion tool.

     ctg_stats expose --sigma 2 -n 100000 [--format json]
     ctg_stats ctmon                     # CT monitor across the sampler zoo
     ctg_stats trace -o trace.json       # demo trace: sign + engine chunks
     ctg_stats prof [--json FILE] [--trace FILE]  # alloc-by-span profile
     ctg_stats pauses [--json FILE] [--trace FILE]  # real GC pause report

   Exit codes: [ctmon] fails (1) when a claimed-CT sampler violates, or
   when the monitor does not fire on the non-CT reference.  The
   instrumentation-overhead gate is [bench obs]. *)

open Cmdliner
module Obs = Ctg_obs
module Bs = Ctg_prng.Bitstream
module Sig = Ctg_samplers.Sampler_sig
module F = Ctg_falcon

(* ------------------------------------------------------------------ *)
(* expose                                                              *)
(* ------------------------------------------------------------------ *)

let expose sigma precision tail_cut count domains format =
  let sampler =
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma ~precision
      ~tail_cut ()
  in
  let pool = Ctg_engine.Pool.create ~domains ~seed:"ctg-stats-expose" sampler in
  ignore (Ctg_engine.Pool.batch_parallel pool ~n:count);
  let registry = Ctg_engine.Metrics.registry (Ctg_engine.Pool.metrics pool) in
  Ctg_engine.Pool.shutdown pool;
  (match format with
  | "text" ->
    print_string (Obs.Registry.expose_text registry);
    (* The process-wide registry carries the compile-cache and Falcon
       series; only print it when something landed there. *)
    let global = Obs.Registry.expose_text Obs.Registry.default in
    if global <> "" then print_string global
  | "json" ->
    let j =
      Obs.Jsonx.Obj
        [
          ("pool", Obs.Registry.to_json registry);
          ("process", Obs.Registry.to_json Obs.Registry.default);
        ]
    in
    print_endline (Obs.Jsonx.pretty j)
  | other -> failwith (Printf.sprintf "unknown format %S" other))

let expose_cmd =
  let sigma =
    Arg.(value & opt string "2" & info [ "sigma" ] ~docv:"SIGMA"
           ~doc:"Standard deviation of the sampler to exercise.")
  in
  let precision =
    Arg.(value & opt int 16 & info [ "precision"; "p" ] ~docv:"N"
           ~doc:"Probability precision.")
  in
  let tail_cut =
    Arg.(value & opt int 13 & info [ "tail-cut" ] ~docv:"TAU" ~doc:"Tail cut.")
  in
  let count =
    Arg.(value & opt int 63_000 & info [ "count"; "n" ] ~docv:"COUNT"
           ~doc:"Samples to draw before exposing.")
  in
  let domains =
    Arg.(value & opt int 2 & info [ "domains"; "d" ] ~docv:"P"
           ~doc:"Worker domains.")
  in
  let format =
    Arg.(value & opt string "text" & info [ "format"; "f" ] ~docv:"FMT"
           ~doc:"Exposition format: text or json.")
  in
  let doc =
    "Run a short batch job and print the metrics registry (deterministic \
     Prometheus-style text, or JSON)."
  in
  Cmd.v (Cmd.info "expose" ~doc)
    Term.(const expose $ sigma $ precision $ tail_cut $ count $ domains $ format)

(* ------------------------------------------------------------------ *)
(* ctmon                                                               *)
(* ------------------------------------------------------------------ *)

(* Monitor the bitsliced sampler per batch, replicating the engine's
   fallback attribution. *)
let monitor_bitsliced registry sampler ~batches =
  let ctmon =
    Obs.Ctmon.create ~registry
      ~labels:[ ("sampler", "bitsliced"); ("sigma", Ctgauss.Sampler.sigma sampler) ]
      ()
  in
  let rng = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "ctmon-bitsliced") in
  for _ = 1 to batches do
    let bits0 = Bs.bits_consumed rng in
    let res0 = Ctgauss.Sampler.resamples sampler in
    ignore (Ctgauss.Sampler.batch_signed sampler rng);
    Obs.Ctmon.observe_batch ctmon
      ~bits:(Bs.bits_consumed rng - bits0)
      ~samples:Ctgauss.Bitslice.lanes
      ~fallback:(Ctgauss.Sampler.resamples sampler > res0)
      ()
  done;
  ctmon

(* Monitor a scalar sampler instance per sample ("batch" of one). *)
let monitor_instance registry (inst : Sig.instance) ~samples =
  let ctmon =
    Obs.Ctmon.create ~registry ~labels:[ ("sampler", inst.Sig.name) ] ()
  in
  let rng = Bs.of_chacha (Ctg_prng.Chacha20.of_seed ("ctmon-" ^ inst.Sig.name)) in
  for _ = 1 to samples do
    let bits0 = Bs.bits_consumed rng in
    ignore (inst.Sig.sample_magnitude rng);
    Obs.Ctmon.observe_batch ctmon ~bits:(Bs.bits_consumed rng - bits0) ~samples:1 ()
  done;
  ctmon

let ctmon samples =
  let registry = Obs.Registry.create () in
  let matrix = Ctg_kyao.Matrix.create ~sigma:"2" ~precision:24 ~tail_cut:13 in
  let enum = Ctg_kyao.Leaf_enum.enumerate matrix in
  let bitsliced = Ctgauss.Sampler.of_enum enum in
  let table = Ctg_samplers.Cdt_table.of_matrix matrix in
  let failures = ref [] in
  let check name ~claimed_ct ctmon =
    let v = Obs.Ctmon.violations ctmon in
    let fb = Obs.Ctmon.fallback_batches ctmon in
    let fires = v > 0 in
    Format.printf
      "  %-18s claimed-ct=%-5b expected %4d bits/batch, violations %6d, \
       fallbacks %d, %.1f bits/sample@."
      name claimed_ct (Obs.Ctmon.expected_bits ctmon) v fb
      (Obs.Ctmon.entropy_bits_per_sample ctmon);
    if claimed_ct && fires then
      failures := (name ^ ": claimed CT but monitor fired") :: !failures;
    fires
  in
  Format.printf "CT monitor: bits drawn per batch must be constant@.@.";
  ignore
    (check "bitsliced(2)" ~claimed_ct:true
       (monitor_bitsliced registry bitsliced ~batches:(samples / 63)));
  let zoo =
    [
      Ctg_samplers.Cdt_samplers.linear_ct table;
      Ctg_samplers.Cdt_samplers.binary_search table;
      Ctg_samplers.Cdt_samplers.byte_scan table;
    ]
  in
  List.iter
    (fun (inst : Sig.instance) ->
      ignore
        (check inst.Sig.name ~claimed_ct:inst.Sig.constant_time
           (monitor_instance registry inst ~samples)))
    zoo;
  (* The deliberately non-constant-time reference: the scalar Knuth-Yao
     walk consumes one bit per tree level, so its draw length varies and
     the monitor must fire. *)
  let reference = Sig.knuth_yao_reference matrix in
  let fired =
    check reference.Sig.name ~claimed_ct:false
      (monitor_instance registry reference ~samples)
  in
  if not fired then
    failures := "knuth-yao-ref: monitor failed to fire on a non-CT walk" :: !failures;
  Format.printf
    "@.(the CDT variants all draw one fixed-width value per attempt: their \
     randomness@.channel is constant even when their *time* is not — the \
     timing channel is@.dudect's job, see bench dudect)@.";
  match !failures with
  | [] -> Format.printf "@.OK@."
  | fs ->
    List.iter (fun f -> Format.printf "FAIL: %s@." f) fs;
    exit 1

let ctmon_cmd =
  let samples =
    Arg.(value & opt int 63_000 & info [ "samples"; "n" ] ~docv:"N"
           ~doc:"Samples (or batches x 63) per monitored sampler.")
  in
  let doc =
    "Run the constant-time monitor across the sampler zoo: claimed-CT \
     samplers must record zero violations; the non-CT Knuth-Yao reference \
     must trip the monitor."
  in
  Cmd.v (Cmd.info "ctmon" ~doc) Term.(const ctmon $ samples)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_demo output =
  Obs.Trace.enable ();
  (* A small Falcon instance: all four sign stages land in the trace. *)
  let params = F.Params.custom ~n:64 in
  let rng = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "ctg-stats-trace") in
  let kp = F.Keygen.generate params rng in
  let sampler =
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma:"2"
      ~precision:16 ~tail_cut:13 ()
  in
  let base = F.Base_sampler.of_instance (Sig.of_bitsliced sampler) in
  let s = F.Sign.sign kp base rng ~msg:(Bytes.of_string "trace demo") in
  ignore (F.Codec.encode_signature ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2);
  (* And a parallel engine job for per-domain chunk spans. *)
  let pool = Ctg_engine.Pool.create ~domains:2 ~seed:"ctg-stats-trace" sampler in
  ignore (Ctg_engine.Pool.batch_parallel pool ~n:(63 * 64));
  Ctg_engine.Pool.shutdown pool;
  Obs.Trace.disable ();
  Obs.Trace.write output;
  Format.printf "wrote %s: %d events (%d dropped)@." output
    (List.length (Obs.Trace.events ()))
    (Obs.Trace.dropped ())

let trace_cmd =
  let output =
    Arg.(value & opt string "trace.json" & info [ "output"; "o" ] ~docv:"FILE"
           ~doc:"Chrome trace_event JSON output path.")
  in
  let doc =
    "Produce a demonstration trace: one Falcon signature (hash-to-point, \
     ffSampling, NTT, encode) plus a 2-domain engine job."
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const trace_demo $ output)

(* ------------------------------------------------------------------ *)
(* prof                                                                *)
(* ------------------------------------------------------------------ *)

let prof_run json_out trace_out =
  let registry = Obs.Registry.create () in
  Ctg_prof.Prof.enable ~registry ~rtev:true ();
  Ctg_prof.Prof.reset ();
  Obs.Trace.reset ();
  (* The same demo workload as [trace], now profiled: a Falcon signing
     batch (per-message "sign" spans) and a 2-domain engine job whose
     chunk spans are flow-linked to the submitting span. *)
  let params = F.Params.custom ~n:64 in
  let rng = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "ctg-stats-prof") in
  let kp = F.Keygen.generate params rng in
  let sampler =
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma:"2"
      ~precision:16 ~tail_cut:13 ()
  in
  let msgs = Array.init 4 (fun i -> Bytes.of_string (Printf.sprintf "prof %d" i)) in
  ignore
    (F.Sign.sign_many ~domains:2 kp
       ~make_base:(fun () ->
         F.Base_sampler.of_instance
           (Sig.of_bitsliced (Ctgauss.Sampler.clone sampler)))
       ~seed:"ctg-stats-prof" ~msgs);
  let pool = Ctg_engine.Pool.create ~domains:2 ~seed:"ctg-stats-prof" sampler in
  Obs.Trace.with_span "job" ~cat:"stats" (fun () ->
      Obs.Trace.flow_start ~id:424242 "job";
      ignore (Ctg_engine.Pool.batch_parallel ~flow:424242 pool ~n:(63 * 64)));
  Ctg_engine.Pool.shutdown pool;
  ignore (Ctg_rtev.Rtev.poll ());
  Format.printf "allocation by span label (minor words, descending):@.@.";
  Format.printf "%a" Ctg_prof.Prof.pp_report ();
  (* The pause column above comes from the rtev consumer when the ring is
     up (wall - pause ~ work); the major-cycle cadence stays as the
     labeled fallback signal. *)
  if Ctg_rtev.Rtev.active () then
    Format.printf "@.gc pauses (rtev): %d (%d minor), total %.3f ms, max %.3f ms"
      (Ctg_rtev.Rtev.pause_count ())
      (Ctg_rtev.Rtev.minor_pause_count ())
      (float_of_int (Ctg_rtev.Rtev.total_pause_ns ()) /. 1e6)
      (float_of_int (Ctg_rtev.Rtev.max_pause_ns ()) /. 1e6)
  else
    Format.printf "@.gc pauses (rtev): ring unavailable, cadence fallback only";
  let cycles =
    Obs.Registry.value (Obs.Registry.counter registry "gc_major_cycles_total")
  in
  let gap =
    Obs.Registry.histo_summary
      (Obs.Registry.histo registry "gc_major_cycle_gap_ns")
  in
  Format.printf "@.gc major cycles (cadence fallback): %d" cycles;
  if gap.Obs.Histo.count > 0 then
    Format.printf " (cycle gap p50 %d ns, max %d ns)" gap.Obs.Histo.p50
      gap.Obs.Histo.max;
  Format.printf "@.";
  (match json_out with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Obs.Jsonx.pretty (Ctg_prof.Prof.report_json ()));
        output_char oc '\n');
    Format.printf "wrote %s@." path);
  (match trace_out with
  | None -> ()
  | Some path ->
    Obs.Trace.write path;
    Format.printf "wrote %s: %d events (%d dropped)@." path
      (List.length (Obs.Trace.events ()))
      (Obs.Trace.dropped ()));
  Ctg_prof.Prof.disable ();
  Ctg_rtev.Rtev.stop ();
  Obs.Trace.disable ()

let prof_cmd =
  let json_out =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the allocation report as JSON.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the gc-annotated Chrome trace (span args carry \
                 alloc_minor_words etc.).")
  in
  let doc =
    "Profile allocation by span: run a demo signing + engine workload with \
     the ctg_prof layer armed and print span labels ranked by words \
     allocated, plus the GC major-cycle cadence."
  in
  Cmd.v (Cmd.info "prof" ~doc) Term.(const prof_run $ json_out $ trace_out)

(* ------------------------------------------------------------------ *)
(* pauses                                                              *)
(* ------------------------------------------------------------------ *)

module Rtev = Ctg_rtev.Rtev

(* Forced-GC workload for the pause report: a single-domain sampling fill
   (steady allocation pressure), a 2-domain engine job (pauses land on
   more than one runtime domain slot), and one [Gc.compact] so even a
   quiet heap reports a deterministic stop-the-world pause. *)
let pauses_workload ~smoke () =
  let sampler =
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma:"2"
      ~precision:16 ~tail_cut:13 ()
  in
  let reps = if smoke then 4 else 12 in
  let n = 63 * (if smoke then 300 else 1000) in
  for lane = 0 to reps - 1 do
    let rng =
      Ctg_engine.Stream_fork.bitstream ~health:false ~seed:"ctg-stats-pauses"
        ~lane ()
    in
    let s = Ctgauss.Sampler.clone sampler in
    let filled = ref 0 in
    while !filled < n do
      filled := !filled + Array.length (Ctgauss.Sampler.batch_signed s rng)
    done;
    ignore (Rtev.poll ())
  done;
  let pool = Ctg_engine.Pool.create ~domains:2 ~seed:"ctg-stats-pauses" sampler in
  ignore (Ctg_engine.Pool.batch_parallel pool ~n);
  Ctg_engine.Pool.shutdown pool;
  Gc.compact ();
  ignore (Rtev.poll ())

let pauses_json registry =
  let stats = Rtev.domain_stats () in
  let module J = Obs.Jsonx in
  let agg =
    Obs.Registry.histo_summary (Obs.Registry.histo registry "gc_pause_ns")
  in
  J.Obj
    [
      ("report", J.Str "gc-pauses");
      ("pauses", J.Num (float_of_int (Rtev.pause_count ())));
      ("minor_pauses", J.Num (float_of_int (Rtev.minor_pause_count ())));
      ("total_pause", J.Num (float_of_int (Rtev.total_pause_ns ())));
      ("pause_max", J.Num (float_of_int (Rtev.max_pause_ns ())));
      ("pause_p50_obs", J.Num (float_of_int agg.Obs.Histo.p50));
      ("pause_p99_obs", J.Num (float_of_int agg.Obs.Histo.p99));
      ("lost_events", J.Num (float_of_int (Rtev.lost_events ())));
      ( "domains",
        J.List
          (List.map
             (fun (d : Rtev.domain_stats) ->
               J.Obj
                 [
                   ("ring", J.Num (float_of_int d.ring));
                   ("pauses", J.Num (float_of_int d.pauses));
                   ("minor_pauses", J.Num (float_of_int d.minor_pauses));
                   ("total_pause", J.Num (float_of_int d.total_ns));
                   ("pause_max", J.Num (float_of_int d.max_ns));
                 ])
             stats) );
    ]

let pauses_run smoke json_out trace_out =
  let registry = Obs.Registry.create () in
  let trace = trace_out <> None in
  if trace then Obs.Trace.enable ();
  if not (Rtev.start ~registry ~trace ()) then begin
    Format.printf
      "runtime telemetry UNAVAILABLE: the Runtime_events ring could not be \
       started; only the gc_major_cycle_gap_ns cadence fallback is \
       available in this environment@.";
    exit 2
  end;
  pauses_workload ~smoke ();
  Format.printf "gc pauses by runtime domain slot (forced-GC workload):@.@.";
  Format.printf "  %4s %8s %8s %14s %14s@." "ring" "pauses" "minor" "total ns"
    "max ns";
  List.iter
    (fun (d : Rtev.domain_stats) ->
      Format.printf "  %4d %8d %8d %14d %14d@." d.ring d.pauses d.minor_pauses
        d.total_ns d.max_ns)
    (Rtev.domain_stats ());
  let agg =
    Obs.Registry.histo_summary (Obs.Registry.histo registry "gc_pause_ns")
  in
  Format.printf
    "@.total: %d pauses (%d minor), %.3f ms paused, max %.3f ms, p50 %d ns, \
     p99 %d ns%s@."
    (Rtev.pause_count ())
    (Rtev.minor_pause_count ())
    (float_of_int (Rtev.total_pause_ns ()) /. 1e6)
    (float_of_int (Rtev.max_pause_ns ()) /. 1e6)
    agg.Obs.Histo.p50 agg.Obs.Histo.p99
    (if Rtev.lost_events () > 0 then
       Printf.sprintf " (%d lost event words)" (Rtev.lost_events ())
     else "");
  (match json_out with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Obs.Jsonx.pretty (pauses_json registry));
        output_char oc '\n');
    Format.printf "wrote %s@." path);
  (match trace_out with
  | None -> ()
  | Some path ->
    Obs.Trace.write path;
    Format.printf "wrote %s: %d events (%d dropped)@." path
      (List.length (Obs.Trace.events ()))
      (Obs.Trace.dropped ());
    Obs.Trace.disable ());
  let pauses = Rtev.pause_count () in
  Rtev.stop ();
  if pauses = 0 then begin
    Format.printf
      "FAIL: no GC pause decoded from the runtime ring on a forced-GC \
       workload@.";
    exit 1
  end
  else Format.printf "OK: real per-domain pause telemetry captured@."

let pauses_cmd =
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"CI-sized run: fewer fill reps, smaller batches.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the per-domain pause report as JSON.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace with GC pause spans on synthetic \
                   per-domain tracks (tid = 1000 + ring).")
  in
  let doc =
    "Consume the Runtime_events ring over a forced-GC workload and report \
     true per-domain GC pause durations (count/minor/total/max plus \
     registry quantiles).  Exits 1 when no pause was decoded, 2 when the \
     ring cannot start."
  in
  Cmd.v (Cmd.info "pauses" ~doc) Term.(const pauses_run $ smoke $ json_out $ trace_out)

(* ------------------------------------------------------------------ *)
(* watch / serve / assure: the continuous-assurance commands            *)
(* ------------------------------------------------------------------ *)

module Assure = Ctg_assure

let make_soak ?rng_of_lane ?seed ~sigma ~precision ~tail_cut ~window ~domains ()
    =
  let drift_config = { Assure.Drift.default_config with window } in
  Assure.Soak.create ~drift_config ?domains ?rng_of_lane ?seed ~sigma
    ~precision ~tail_cut ()

let print_status soak ~elapsed =
  let monitor = Assure.Soak.monitor soak in
  let drift = Assure.Monitor.drift monitor in
  let leak = Assure.Soak.leak soak in
  let r = Assure.Leak.report leak in
  let ctmon = Ctg_engine.Pool.ctmon (Assure.Soak.pool soak) in
  Format.printf "sigma %s | %.0fs | %d samples (%.2f M/s)@."
    (Assure.Soak.sigma soak) elapsed
    (Assure.Soak.samples soak)
    (float_of_int (Assure.Soak.samples soak) /. elapsed /. 1e6);
  Format.printf "  drift   windows %d, alarms %d@." (Assure.Drift.windows drift)
    (Assure.Drift.alarms drift);
  (match Assure.Drift.last drift with
  | None -> Format.printf "  window  (first window still filling)@."
  | Some w -> Format.printf "  window  %a@." Assure.Drift.pp_result w);
  Format.printf "  leak    |t|=%.2f over %d measurements (threshold 4.5)@."
    (abs_float r.Ctg_ctcheck.Dudect.t_statistic)
    (Assure.Leak.count leak);
  Format.printf "  ct      violations %d, fallback batches %d@."
    (Obs.Ctmon.violations ctmon)
    (Obs.Ctmon.fallback_batches ctmon);
  match Assure.Monitor.verdict monitor with
  | Assure.Monitor.Healthy -> Format.printf "  verdict HEALTHY@."
  | Assure.Monitor.Failing fs ->
    List.iter (fun f -> Format.printf "  verdict FAILING: %s@." f) fs

let soak_loop soak ~duration ~on_frame =
  let t0 = Unix.gettimeofday () in
  let last_frame = ref 0.0 in
  let continue = ref true in
  while !continue do
    Assure.Soak.tick soak;
    let now = Unix.gettimeofday () in
    if now -. !last_frame >= 1.0 then begin
      last_frame := now;
      on_frame (now -. t0)
    end;
    if duration > 0.0 && now -. t0 >= duration then continue := false
  done;
  Unix.gettimeofday () -. t0

let watch sigma precision tail_cut duration domains window =
  let soak = make_soak ~sigma ~precision ~tail_cut ~window ~domains () in
  let elapsed =
    soak_loop soak ~duration ~on_frame:(fun elapsed ->
        (* Home + clear-to-end keeps the frame in place on a terminal and
           degrades to plain appended frames when piped. *)
        if Unix.isatty Unix.stdout then Format.printf "\x1b[H\x1b[2J";
        Format.printf "ctg_stats watch — continuous assurance@.@.";
        print_status soak ~elapsed)
  in
  print_status soak ~elapsed;
  let healthy = Assure.Monitor.healthy (Assure.Soak.monitor soak) in
  Assure.Soak.shutdown soak;
  if not healthy then exit 1

let watch_cmd =
  let sigma =
    Arg.(value & opt string "2" & info [ "sigma" ] ~docv:"SIGMA"
           ~doc:"Standard deviation of the monitored sampler.")
  in
  let precision =
    Arg.(value & opt int 128 & info [ "precision"; "p" ] ~docv:"N"
           ~doc:"Probability precision.")
  in
  let tail_cut =
    Arg.(value & opt int 13 & info [ "tail-cut" ] ~docv:"TAU" ~doc:"Tail cut.")
  in
  let duration =
    Arg.(value & opt float 0.0 & info [ "duration"; "t" ] ~docv:"SECONDS"
           ~doc:"Stop after this long; 0 runs until interrupted.")
  in
  let domains =
    Arg.(value & opt (some int) None & info [ "domains"; "d" ] ~docv:"P"
           ~doc:"Worker domains (default: recommended count).")
  in
  let window =
    Arg.(value & opt int 100_000 & info [ "window" ] ~docv:"N"
           ~doc:"Samples per drift test window.")
  in
  let doc =
    "Live terminal view of the assurance monitors: drift windows, running \
     dudect |t|, CT monitor and the rolled-up health verdict, refreshed \
     every second over an in-process soak."
  in
  Cmd.v (Cmd.info "watch" ~doc)
    Term.(const watch $ sigma $ precision $ tail_cut $ duration $ domains $ window)

let serve sigma precision tail_cut port duration domains window =
  let soak = make_soak ~sigma ~precision ~tail_cut ~window ~domains () in
  let server =
    Ctg_net.Http.start ~port ~routes:(Assure.Soak.routes soak) ()
  in
  Format.printf
    "serving http://127.0.0.1:%d/metrics (also /healthz, /drift.json)@."
    (Ctg_net.Http.port server);
  Format.printf "%s@."
    (if duration > 0.0 then Printf.sprintf "soaking for %.0fs" duration
     else "soaking until interrupted");
  ignore (soak_loop soak ~duration ~on_frame:(fun _ -> ()));
  let healthy = Assure.Monitor.healthy (Assure.Soak.monitor soak) in
  Ctg_net.Http.stop server;
  Assure.Soak.shutdown soak;
  if not healthy then exit 1

let serve_cmd =
  let sigma =
    Arg.(value & opt string "2" & info [ "sigma" ] ~docv:"SIGMA"
           ~doc:"Standard deviation of the monitored sampler.")
  in
  let precision =
    Arg.(value & opt int 128 & info [ "precision"; "p" ] ~docv:"N"
           ~doc:"Probability precision.")
  in
  let tail_cut =
    Arg.(value & opt int 13 & info [ "tail-cut" ] ~docv:"TAU" ~doc:"Tail cut.")
  in
  let port =
    Arg.(value & opt int 9464 & info [ "port" ] ~docv:"PORT"
           ~doc:"Listen port; 0 picks a free one.")
  in
  let duration =
    Arg.(value & opt float 0.0 & info [ "duration"; "t" ] ~docv:"SECONDS"
           ~doc:"Stop after this long; 0 runs until interrupted.")
  in
  let domains =
    Arg.(value & opt (some int) None & info [ "domains"; "d" ] ~docv:"P"
           ~doc:"Worker domains (default: recommended count).")
  in
  let window =
    Arg.(value & opt int 100_000 & info [ "window" ] ~docv:"N"
           ~doc:"Samples per drift test window.")
  in
  let doc =
    "Soak the sampler while serving /metrics (Prometheus text), /healthz \
     (verdict JSON; 503 when failing) and /drift.json over HTTP."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const serve $ sigma $ precision $ tail_cut $ port $ duration
          $ domains $ window)

(* The CI smoke: a clean soak must stay quiet, and both controls — the
   non-CT Knuth-Yao reference for the leak assessor, a bias-injected lane
   family for the drift monitor — must be caught. *)
let assure sigma precision tail_cut duration domains window json_out =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in

  Format.printf "[1/3] clean soak: sigma=%s precision=%d for %.0fs@." sigma
    precision duration;
  let soak = make_soak ~sigma ~precision ~tail_cut ~window ~domains () in
  Assure.Soak.run soak ~duration;
  let monitor = Assure.Soak.monitor soak in
  let drift = Assure.Monitor.drift monitor in
  print_status soak ~elapsed:duration;
  (match Assure.Monitor.verdict monitor with
  | Assure.Monitor.Healthy -> ()
  | Assure.Monitor.Failing fs ->
    List.iter (fun f -> fail "clean soak: %s" f) fs);
  if Assure.Drift.windows drift = 0 then
    fail "clean soak: no drift window completed (%d samples < window %d)"
      (Assure.Drift.samples drift) window;
  let clean_json = Assure.Monitor.healthz_json monitor in
  let clean_registry_text =
    Obs.Registry.expose_text (Assure.Soak.registry soak)
  in
  Assure.Soak.shutdown soak;

  Format.printf "@.[2/3] leak control: knuth-yao-ref bit trace must be flagged@.";
  let matrix = Ctg_kyao.Matrix.create ~sigma ~precision:24 ~tail_cut in
  let reference = Sig.knuth_yao_reference matrix in
  let leak_ctl =
    Assure.Leak.create
      ~registry:(Obs.Registry.create ())
      ~probe:(Assure.Leak.ops_probe reference)
      ()
  in
  Assure.Leak.step ~n:20_000 leak_ctl;
  let ctl = Assure.Leak.report leak_ctl in
  Format.printf "  knuth-yao-ref: %a@." Ctg_ctcheck.Dudect.pp_report ctl;
  if not ctl.Ctg_ctcheck.Dudect.leaky then
    fail "leak control: reference walk was not flagged (|t|=%.2f)"
      (abs_float ctl.Ctg_ctcheck.Dudect.t_statistic);

  Format.printf "@.[3/3] drift control: biased lanes must alarm in window 1@.";
  let plan =
    Ctg_fault.Plan.rng_plan ~seed:0xB1A5EDL
      (Ctg_fault.Plan.Bias { p_one = 0.6 })
  in
  let rng_of_lane =
    Ctg_fault.Plan.lane_factory ~health:false plan ~seed:"assure-bias"
  in
  let ctl_window = min window 50_000 in
  let soak2 =
    make_soak ~rng_of_lane ~seed:"assure-bias" ~sigma ~precision ~tail_cut
      ~window:ctl_window ~domains ()
  in
  let drift2 = Assure.Monitor.drift (Assure.Soak.monitor soak2) in
  (* One test window's worth of ticks, with margin. *)
  let max_ticks = 4 + (2 * ctl_window / (63 * 512)) in
  let ticks = ref 0 in
  while Assure.Drift.windows drift2 < 1 && !ticks < max_ticks do
    Assure.Soak.tick soak2;
    incr ticks
  done;
  (match Assure.Drift.last drift2 with
  | None -> fail "drift control: no window completed after %d ticks" !ticks
  | Some w ->
    Format.printf "  %a@." Assure.Drift.pp_result w;
    if not w.Assure.Drift.alarm then
      fail "drift control: bias p_one=0.6 did not alarm in the first window \
            (p=%.4g)"
        w.Assure.Drift.p_value);
  let drift_ctl_json =
    match Assure.Drift.last drift2 with
    | None -> Obs.Jsonx.Null
    | Some w -> Assure.Drift.result_json w
  in
  Assure.Soak.shutdown soak2;

  let ok = !failures = [] in
  (match json_out with
  | None -> ()
  | Some path ->
    let j =
      Obs.Jsonx.Obj
        [
          ("ok", Bool ok);
          ( "failures",
            List (List.rev_map (fun f -> Obs.Jsonx.Str f) !failures) );
          ("clean", clean_json);
          ( "leak_control",
            Obj
              [
                ("t", Num ctl.Ctg_ctcheck.Dudect.t_statistic);
                ("leaky", Bool ctl.Ctg_ctcheck.Dudect.leaky);
              ] );
          ("drift_control", drift_ctl_json);
        ]
    in
    let oc = open_out path in
    output_string oc (Obs.Jsonx.pretty j);
    output_char oc '\n';
    close_out oc;
    Format.printf "@.wrote %s@." path);
  (match json_out with
  | Some path ->
    (* The /metrics artifact next to the verdict, for scrape debugging. *)
    let oc = open_out (Filename.remove_extension path ^ ".metrics.txt") in
    output_string oc clean_registry_text;
    close_out oc
  | None -> ());
  if ok then Format.printf "@.OK: clean soak quiet, both controls caught@."
  else begin
    List.iter (fun f -> Format.printf "FAIL: %s@." f) (List.rev !failures);
    exit 1
  end

let assure_cmd =
  let sigma =
    Arg.(value & opt string "2" & info [ "sigma" ] ~docv:"SIGMA"
           ~doc:"Standard deviation of the soaked sampler.")
  in
  let precision =
    Arg.(value & opt int 128 & info [ "precision"; "p" ] ~docv:"N"
           ~doc:"Probability precision.")
  in
  let tail_cut =
    Arg.(value & opt int 13 & info [ "tail-cut" ] ~docv:"TAU" ~doc:"Tail cut.")
  in
  let duration =
    Arg.(value & opt float 30.0 & info [ "duration"; "t" ] ~docv:"SECONDS"
           ~doc:"Clean-soak length.")
  in
  let domains =
    Arg.(value & opt (some int) None & info [ "domains"; "d" ] ~docv:"P"
           ~doc:"Worker domains (default: recommended count).")
  in
  let window =
    Arg.(value & opt int 100_000 & info [ "window" ] ~docv:"N"
           ~doc:"Samples per drift test window.")
  in
  let json_out =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the machine-readable verdict (plus a .metrics.txt \
                 scrape artifact) here.")
  in
  let doc =
    "CI assurance smoke: a clean soak must finish healthy (no drift alarm, \
     |t| under 4.5, zero CT violations), the non-CT Knuth-Yao reference \
     must be flagged by the leak assessor, and a bias-injected lane family \
     must trip the drift monitor within its first window."
  in
  Cmd.v (Cmd.info "assure" ~doc)
    Term.(const assure $ sigma $ precision $ tail_cut $ duration $ domains
          $ window $ json_out)

(* ------------------------------------------------------------------ *)
(* saga                                                                *)
(* ------------------------------------------------------------------ *)

(* The statistical acceptance battery over the registered backend zoo —
   the same instances ctmon sweeps — at every paper sigma, plus one
   seeded-bias control per test family that must FAIL (proving each
   family fires before we trust the clean PASSes). *)
let saga smoke samples seed json_out =
  let module Battery = Ctg_saga.Battery in
  let module Plan = Ctg_fault.Plan in
  let seed =
    match seed with
    | None -> 0x5A6A_5EEDL
    | Some s -> (
      try Int64.of_string s
      with _ -> failwith (Printf.sprintf "unparseable seed %S" s))
  in
  let set =
    if smoke then [ ("2", 16); ("215", 16) ] else Ctgauss.Sampler.paper_keys
  in
  let config =
    match samples with
    | None -> Battery.default_config
    | Some n -> { Battery.default_config with samples = n }
  in
  Format.printf
    "acceptance battery: %d samples per (backend, sigma), master seed 0x%Lx@.@."
    config.Battery.samples seed;
  let failures = ref [] in
  let verdicts =
    List.concat_map
      (fun (sigma, precision) ->
        let sampler =
          Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma
            ~precision ~tail_cut:13 ()
        in
        let matrix = Ctgauss.Sampler.matrix sampler in
        let model = Battery.model matrix in
        let table = Ctg_samplers.Cdt_table.of_matrix matrix in
        let zoo =
          [
            Sig.of_bitsliced (Ctgauss.Sampler.clone sampler);
            Ctg_samplers.Cdt_samplers.linear_ct table;
            Ctg_samplers.Cdt_samplers.binary_search table;
            Ctg_samplers.Cdt_samplers.byte_scan table;
            Sig.knuth_yao_reference matrix;
          ]
        in
        List.map
          (fun inst ->
            let v = Battery.run ~config ~seed model inst in
            Format.printf "  %a@." Battery.pp_verdict v;
            if not v.Battery.pass then
              failures :=
                Printf.sprintf "%s sigma=%s FAILed the clean battery"
                  v.Battery.backend sigma
                :: !failures;
            v)
          zoo)
      set
  in
  (* Seeded-bias controls: each family must fire on the fault built to
     violate exactly it. *)
  Format.printf "@.bias controls (each family must FAIL):@.";
  let control_sigma, control_precision =
    List.hd (List.filter (fun (s, _) -> s = "2") set)
  in
  let control_matrix =
    Ctg_kyao.Matrix.create ~sigma:control_sigma
      ~precision:control_precision ~tail_cut:13
  in
  let control_model = Battery.model control_matrix in
  let control_table = Ctg_samplers.Cdt_table.of_matrix control_matrix in
  let support = control_matrix.Ctg_kyao.Matrix.support in
  let controls =
    [
      ("moments", Plan.Center_shift { delta = 0.05 });
      ("chi-square", Plan.Variance_deflate { p = 0.05 });
      ("tails", Plan.Outlier { p = 5e-4; magnitude = support + 3 });
      ("autocorrelation", Plan.Sticky { p = 0.1 });
    ]
  in
  let control_verdicts =
    List.mapi
      (fun i (family, fault) ->
        let plan =
          Plan.value_plan ~seed:(Int64.add seed (Int64.of_int (i + 1))) fault
        in
        let v =
          Battery.run ~config
            ~bias:(Plan.value_transform plan)
            ~seed control_model
            (Ctg_samplers.Cdt_samplers.linear_ct control_table)
        in
        let hit = List.mem family (Battery.failed_families v) in
        Format.printf "  %-16s %-18s -> %s@." family
          (Plan.value_fault_name fault)
          (if hit then "FAIL (as required)"
           else if v.Battery.pass then "PASS (control did not fire!)"
           else
             Printf.sprintf "FAIL, but in %s"
               (String.concat "," (Battery.failed_families v)));
        if not hit then
          failures :=
            Printf.sprintf "control %s (%s) did not fail its family" family
              (Plan.value_fault_name fault)
            :: !failures;
        (family, Plan.value_fault_name fault, hit, v))
      controls
  in
  (match json_out with
  | Some path ->
    let j =
      Obs.Jsonx.Obj
        [
          ("seed", Str (Printf.sprintf "0x%Lx" seed));
          ("samples", Num (float_of_int config.Battery.samples));
          ( "verdicts",
            List (List.map Battery.verdict_json verdicts) );
          ( "controls",
            List
              (List.map
                 (fun (family, fault, hit, v) ->
                   Obs.Jsonx.Obj
                     [
                       ("family", Str family);
                       ("fault", Str fault);
                       ("failed_as_required", Bool hit);
                       ("verdict", Battery.verdict_json v);
                     ])
                 control_verdicts) );
          ("pass", Bool (!failures = []));
        ]
    in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Obs.Jsonx.pretty j);
        output_char oc '\n');
    Format.printf "@.wrote %s@." path
  | None -> ());
  match !failures with
  | [] -> Format.printf "@.OK: all clean verdicts PASS, every control fired@."
  | fs ->
    Format.printf "@.FAIL:@.";
    List.iter (fun f -> Format.printf "  %s@." f) fs;
    exit 1

let saga_cmd =
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ] ~doc:"CI-sized run: sigma 2 and 215 at precision 16.")
  in
  let samples =
    Arg.(value & opt (some int) None
         & info [ "samples"; "n" ] ~docv:"N"
             ~doc:"Samples per (backend, sigma) verdict (default 200000).")
  in
  let seed =
    Arg.(value & opt (some string) None
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Master seed (decimal or 0x-hex) for exact reproduction.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json"; "o" ] ~docv:"FILE"
             ~doc:"Write the machine-readable verdicts here.")
  in
  let doc =
    "SAGA-style statistical acceptance battery: moments, chi-square GOF, \
     tail/support and autocorrelation checks for every registered backend \
     and sigma against the exact termination-conditioned law, plus \
     seeded-bias controls that must fail."
  in
  Cmd.v (Cmd.info "saga" ~doc) Term.(const saga $ smoke $ samples $ seed $ json_out)

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "observability companion: exposition, CT monitor, traces, \
     continuous assurance, acceptance battery"
  in
  let info = Cmd.info "ctg_stats" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            expose_cmd; ctmon_cmd; trace_cmd; prof_cmd;
            pauses_cmd; watch_cmd; serve_cmd; assure_cmd; saga_cmd;
          ]))

(* ctg_stats: the statistical-assurance companion tool.

     ctg_stats ctmon                     # CT monitor across the sampler zoo
     ctg_stats prof [--json FILE] [--trace FILE]  # alloc-by-span profile
     ctg_stats assure [--json FILE]      # clean soak + drift control
     ctg_stats saga [--smoke] [--json FILE]  # acceptance battery

   Exit codes: [ctmon] fails (1) when a claimed-CT sampler violates, or
   when the monitor does not fire on the non-CT reference; [assure] and
   [saga] fail (1) when a clean run alarms or a control does not fire.
   The timing-channel audit is [bench dudect]; the instrumentation-overhead
   gate is [bench obs]. *)

open Cmdliner
module Obs = Ctg_obs
module Bs = Ctg_prng.Bitstream
module Sig = Ctg_samplers.Sampler_sig
module F = Ctg_falcon

(* ------------------------------------------------------------------ *)
(* ctmon                                                               *)
(* ------------------------------------------------------------------ *)

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
  let sampler =
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma:"2"
      ~precision:128 ~tail_cut:13 ()
  in
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
  let bitsliced, scalars =
    match Ctg_samplers.Cdt_samplers.zoo sampler with
    | b :: rest -> (b, rest)
    | [] -> assert false
  in
  (* The bitsliced row is the engine's own monitor: a pool over the
     registry's kernel-bound sampler, as the daemon runs it, whose worker
     checks the bits of every batch. *)
  let pool = Ctg_engine.Pool.create ~domains:1 ~seed:"ctmon-bitsliced" sampler in
  ignore (Ctg_engine.Pool.batch_parallel pool ~n:samples);
  ignore
    (check bitsliced.Sig.name ~claimed_ct:bitsliced.Sig.constant_time
       (Ctg_engine.Pool.ctmon pool));
  Ctg_engine.Pool.shutdown pool;
  List.iter
    (fun (inst : Sig.instance) ->
      let fired =
        check inst.Sig.name ~claimed_ct:inst.Sig.constant_time
          (monitor_instance registry inst ~samples)
      in
      (* The deliberately non-constant-time reference: the scalar
         Knuth-Yao walk consumes one bit per tree level, so its draw
         length varies and the monitor must fire. *)
      if inst.Sig.name = "knuth-yao-ref" && not fired then
        failures :=
          "knuth-yao-ref: monitor failed to fire on a non-CT walk" :: !failures)
    scalars;
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
           ~doc:"Samples per monitored sampler.")
  in
  let doc =
    "Run the constant-time monitor across the sampler zoo: claimed-CT \
     samplers must record zero violations; the non-CT Knuth-Yao reference \
     must trip the monitor."
  in
  Cmd.v (Cmd.info "ctmon" ~doc) Term.(const ctmon $ samples)

(* ------------------------------------------------------------------ *)
(* prof                                                                *)
(* ------------------------------------------------------------------ *)

let prof_run json_out trace_out =
  let registry = Obs.Registry.create () in
  Ctg_prof.Prof.enable ~registry ~rtev:true ();
  Ctg_prof.Prof.reset ();
  Obs.Trace.reset ();
  (* The demo workload: a Falcon signing batch (per-message "sign" spans)
     and a 2-domain engine job whose chunk spans are flow-linked to the
     submitting span. *)
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
     up (wall - pause ~ work). *)
  if Ctg_rtev.Rtev.active () then
    Format.printf "@.gc pauses (rtev): %d (%d minor), total %.3f ms, max %.3f ms@."
      (Ctg_rtev.Rtev.pause_count ())
      (Ctg_rtev.Rtev.minor_pause_count ())
      (float_of_int (Ctg_rtev.Rtev.total_pause_ns ()) /. 1e6)
      (float_of_int (Ctg_rtev.Rtev.max_pause_ns ()) /. 1e6)
  else Format.printf "@.gc pauses (rtev): ring unavailable@.";
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
     allocated, plus the GC pauses from the Runtime_events ring."
  in
  Cmd.v (Cmd.info "prof" ~doc) Term.(const prof_run $ json_out $ trace_out)

(* ------------------------------------------------------------------ *)
(* assure: the continuous-assurance smoke                              *)
(* ------------------------------------------------------------------ *)

module Assure = Ctg_assure
module Pool = Ctg_engine.Pool

(* A soak: an engine pool over the registry's sampler whose chunk
   observers feed the drift monitor, and whose CT monitor the verdict
   reads, advanced one 63 x 512-sample batch per tick. *)
let soak_batch = 63 * 512

let make_soak ?rng_of_lane ?seed ~sigma ~precision ~tail_cut ~window ~domains ()
    =
  let sampler =
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma ~precision
      ~tail_cut ()
  in
  let seed = match seed with Some s -> s | None -> "assure-soak-" ^ sigma in
  let pool = Pool.create ?domains ?rng_of_lane ~seed sampler in
  let monitor =
    Assure.Monitor.create
      ~config:{ Assure.Drift.default_config with window }
      ~registry:(Ctg_engine.Metrics.registry (Pool.metrics pool))
      ~labels:[ ("sigma", sigma) ]
      ~matrix:(Ctgauss.Sampler.matrix sampler) ()
  in
  Assure.Monitor.attach_pool monitor pool;
  (pool, monitor)

let tick pool = ignore (Pool.batch_parallel pool ~n:soak_batch)

let print_status ~sigma pool monitor ~elapsed =
  let drift = Assure.Monitor.drift monitor in
  let samples = Assure.Drift.samples drift in
  let ctmon = Pool.ctmon pool in
  Format.printf "sigma %s | %.0fs | %d samples (%.2f M/s)@." sigma elapsed
    samples
    (float_of_int samples /. elapsed /. 1e6);
  Format.printf "  drift   windows %d, alarms %d@." (Assure.Drift.windows drift)
    (Assure.Drift.alarms drift);
  (match Assure.Drift.last drift with
  | None -> Format.printf "  window  (first window still filling)@."
  | Some w -> Format.printf "  window  %a@." Assure.Drift.pp_result w);
  Format.printf "  ct      violations %d, fallback batches %d@."
    (Obs.Ctmon.violations ctmon)
    (Obs.Ctmon.fallback_batches ctmon);
  match Assure.Monitor.verdict monitor with
  | Assure.Monitor.Healthy -> Format.printf "  verdict HEALTHY@."
  | Assure.Monitor.Failing fs ->
    List.iter (fun f -> Format.printf "  verdict FAILING: %s@." f) fs

(* The CI smoke: a clean soak must stay quiet, and a bias-injected lane
   family must be caught by the drift monitor.  The timing channel's
   non-CT control is bench dudect's knuth-yao-ref row. *)
let assure sigma precision tail_cut duration domains window json_out =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in

  Format.printf "[1/2] clean soak: sigma=%s precision=%d for %.0fs@." sigma
    precision duration;
  let pool, monitor = make_soak ~sigma ~precision ~tail_cut ~window ~domains () in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < duration do
    tick pool
  done;
  let drift = Assure.Monitor.drift monitor in
  print_status ~sigma pool monitor ~elapsed:duration;
  (match Assure.Monitor.verdict monitor with
  | Assure.Monitor.Healthy -> ()
  | Assure.Monitor.Failing fs ->
    List.iter (fun f -> fail "clean soak: %s" f) fs);
  if Assure.Drift.windows drift = 0 then
    fail "clean soak: no drift window completed (%d samples < window %d)"
      (Assure.Drift.samples drift) window;
  let clean_json = Assure.Monitor.healthz_json monitor in
  let clean_registry_text =
    Obs.Registry.expose_text (Ctg_engine.Metrics.registry (Pool.metrics pool))
  in
  Pool.shutdown pool;

  Format.printf "@.[2/2] drift control: biased lanes must alarm in window 1@.";
  let plan =
    Ctg_fault.Plan.rng_plan ~seed:0xB1A5EDL
      (Ctg_fault.Plan.Bias { p_one = 0.6 })
  in
  let rng_of_lane =
    Ctg_fault.Plan.lane_factory ~health:false plan ~seed:"assure-bias"
  in
  let ctl_window = min window 50_000 in
  let pool2, monitor2 =
    make_soak ~rng_of_lane ~seed:"assure-bias" ~sigma ~precision ~tail_cut
      ~window:ctl_window ~domains ()
  in
  let drift2 = Assure.Monitor.drift monitor2 in
  (* One test window's worth of ticks, with margin. *)
  let max_ticks = 4 + (2 * ctl_window / soak_batch) in
  let ticks = ref 0 in
  while Assure.Drift.windows drift2 < 1 && !ticks < max_ticks do
    tick pool2;
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
  Pool.shutdown pool2;

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
  if ok then Format.printf "@.OK: clean soak quiet, drift control caught@."
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
     zero CT violations), and a bias-injected lane family must trip the \
     drift monitor within its first window.  The timing channel, with its \
     non-CT Knuth-Yao control, is bench dudect."
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
        let model = Battery.model (Ctgauss.Sampler.matrix sampler) in
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
          (Ctg_samplers.Cdt_samplers.zoo sampler))
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
    "statistical-assurance companion: CT monitor, allocation profile, \
     continuous assurance, acceptance battery"
  in
  let info = Cmd.info "ctg_stats" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ ctmon_cmd; prof_cmd; assure_cmd; saga_cmd ]))

(* Tests for the ctg_rtev Runtime_events consumer: the pure pause decoder
   (driven by a synthetic feed — runtime timestamps cannot be fabricated),
   live forced-GC capture from the process's own ring, per-domain
   attribution, trace injection on the synthetic per-domain tracks, the
   pause budget and the pause ledger's charges by event time. *)

module Obs = Ctg_obs
module Registry = Ctg_obs.Registry
module Promtext = Ctg_obs.Promtext
module Trace = Ctg_obs.Trace
module Rtev = Ctg_rtev.Rtev
module Decode = Ctg_rtev.Rtev.Decode

(* --------------------------------------------------------------------- *)
(* Decode: synthetic event feeds *)

let begin_gc d ~ring ~ts phase =
  Decode.on_begin d ~ring ~ts_ns:ts ~phase ~cls:Decode.Gc

let begin_minor d ~ring ~ts phase =
  Decode.on_begin d ~ring ~ts_ns:ts ~phase ~cls:Decode.Minor

let test_decode_flat_pause () =
  let d = Decode.create () in
  begin_gc d ~ring:0 ~ts:100 "stw_leader";
  match Decode.on_end d ~ring:0 ~ts_ns:350 with
  | None -> Alcotest.fail "expected a pause"
  | Some p ->
    Alcotest.(check int) "ring" 0 p.Decode.ring;
    Alcotest.(check int) "start" 100 p.Decode.start_ns;
    Alcotest.(check int) "duration" 250 p.Decode.dur_ns;
    Alcotest.(check bool) "not minor" false p.Decode.minor;
    Alcotest.(check string) "phase" "stw_leader" p.Decode.phase

let test_decode_nesting () =
  (* Only the depth-0 end yields a pause; the whole nest is one pause and
     a minor phase anywhere inside marks it minor. *)
  let d = Decode.create () in
  begin_gc d ~ring:0 ~ts:1_000 "stw_leader";
  begin_minor d ~ring:0 ~ts:1_100 "minor";
  begin_gc d ~ring:0 ~ts:1_200 "minor_local_roots";
  Alcotest.(check (option reject)) "inner end is silent" None
    (Option.map ignore (Decode.on_end d ~ring:0 ~ts_ns:1_300));
  Alcotest.(check (option reject)) "second inner end is silent" None
    (Option.map ignore (Decode.on_end d ~ring:0 ~ts_ns:1_400));
  match Decode.on_end d ~ring:0 ~ts_ns:2_000 with
  | None -> Alcotest.fail "expected the top-level pause"
  | Some p ->
    Alcotest.(check int) "spans the whole nest" 1_000 p.Decode.dur_ns;
    Alcotest.(check bool) "minor seen inside" true p.Decode.minor;
    Alcotest.(check string) "top-level phase name" "stw_leader" p.Decode.phase

let test_decode_excluded () =
  (* A condition wait is a top-level runtime phase but not a pause. *)
  let d = Decode.create () in
  Decode.on_begin d ~ring:0 ~ts_ns:10 ~phase:"condition_wait"
    ~cls:Decode.Excluded;
  Alcotest.(check (option reject)) "excluded span dropped" None
    (Option.map ignore (Decode.on_end d ~ring:0 ~ts_ns:500_000));
  (* The next top-level span decodes normally. *)
  begin_gc d ~ring:0 ~ts:600 "stw_leader";
  match Decode.on_end d ~ring:0 ~ts_ns:700 with
  | None -> Alcotest.fail "pause after excluded span lost"
  | Some p -> Alcotest.(check int) "duration" 100 p.Decode.dur_ns

let test_decode_classify () =
  let open Runtime_events in
  Alcotest.(check bool) "EV_MINOR is minor" true
    (Decode.classify EV_MINOR = Decode.Minor);
  Alcotest.(check bool) "EV_EXPLICIT_GC_MINOR is minor" true
    (Decode.classify EV_EXPLICIT_GC_MINOR = Decode.Minor);
  Alcotest.(check bool) "condition wait excluded" true
    (Decode.classify EV_DOMAIN_CONDITION_WAIT = Decode.Excluded);
  Alcotest.(check bool) "Gc.set excluded" true
    (Decode.classify EV_EXPLICIT_GC_SET = Decode.Excluded);
  Alcotest.(check bool) "major slice counts as gc" true
    (Decode.classify EV_MAJOR = Decode.Gc)

let test_decode_multi_ring () =
  (* Interleaved rings decode independently: ring 1's span nests inside
     ring 0's timeline but they are separate pauses. *)
  let d = Decode.create () in
  begin_gc d ~ring:0 ~ts:100 "stw_leader";
  begin_minor d ~ring:1 ~ts:150 "minor";
  let p1 =
    match Decode.on_end d ~ring:1 ~ts_ns:250 with
    | Some p -> p
    | None -> Alcotest.fail "ring 1 pause missing"
  in
  let p0 =
    match Decode.on_end d ~ring:0 ~ts_ns:400 with
    | Some p -> p
    | None -> Alcotest.fail "ring 0 pause missing"
  in
  Alcotest.(check int) "ring 1 attribution" 1 p1.Decode.ring;
  Alcotest.(check int) "ring 1 duration" 100 p1.Decode.dur_ns;
  Alcotest.(check bool) "ring 1 minor" true p1.Decode.minor;
  Alcotest.(check int) "ring 0 attribution" 0 p0.Decode.ring;
  Alcotest.(check int) "ring 0 duration" 300 p0.Decode.dur_ns;
  Alcotest.(check bool) "ring 0 not minor" false p0.Decode.minor

let test_decode_lost_events () =
  (* A lost-events notification mid-span drops the half-observed pause
     (its duration can no longer be trusted) and the orphaned end. *)
  let d = Decode.create () in
  begin_gc d ~ring:0 ~ts:100 "stw_leader";
  Decode.on_lost d ~ring:0;
  Alcotest.(check (option reject)) "orphaned end dropped" None
    (Option.map ignore (Decode.on_end d ~ring:0 ~ts_ns:900));
  (* Ring 1 is untouched by ring 0's overflow. *)
  begin_gc d ~ring:1 ~ts:100 "stw_leader";
  (match Decode.on_end d ~ring:1 ~ts_ns:300 with
  | Some p -> Alcotest.(check int) "other ring unaffected" 200 p.Decode.dur_ns
  | None -> Alcotest.fail "ring 1 pause lost");
  (* And ring 0 recovers on the next complete span. *)
  begin_gc d ~ring:0 ~ts:1_000 "stw_leader";
  match Decode.on_end d ~ring:0 ~ts_ns:1_500 with
  | Some p -> Alcotest.(check int) "recovered" 500 p.Decode.dur_ns
  | None -> Alcotest.fail "ring 0 did not recover"

let test_decode_unmatched_end () =
  (* An end whose begin predates the cursor cannot be timed. *)
  let d = Decode.create () in
  Alcotest.(check (option reject)) "cold end dropped" None
    (Option.map ignore (Decode.on_end d ~ring:3 ~ts_ns:500));
  (* Zero- and negative-duration spans are dropped too. *)
  begin_gc d ~ring:3 ~ts:500 "stw_leader";
  Alcotest.(check (option reject)) "zero duration dropped" None
    (Option.map ignore (Decode.on_end d ~ring:3 ~ts_ns:500))

(* --------------------------------------------------------------------- *)
(* Live capture from the process's own ring *)

let churn () =
  (* Allocation pressure (minor collections) plus one compaction (a
     guaranteed stop-the-world major pause). *)
  let keep = ref [] in
  for i = 0 to 300 do
    keep := Array.make 1024 i :: !keep;
    if i mod 50 = 0 then keep := []
  done;
  ignore (Sys.opaque_identity !keep);
  Gc.compact ()

(* The per-domain pause series [handle_pause] writes to [registry]:
   [(domain, sample)] for every [name] sample labelled with a domain,
   e.g. [gc_pauses_total] or [gc_pause_ns_sum]. *)
let domain_series registry name =
  match Promtext.parse (Registry.expose_text registry) with
  | Error e -> Alcotest.failf "exposition does not parse: %s" e
  | Ok items ->
    List.filter_map
      (fun (n, labels, v) ->
        match List.assoc_opt "domain" labels with
        | Some d when n = name -> Some (d, int_of_float v)
        | _ -> None)
      (Promtext.samples items)

let sum_series = List.fold_left (fun a (_, v) -> a + v) 0

let test_live_forced_gc_capture () =
  let registry = Registry.create () in
  Alcotest.(check bool) "consumer starts" true
    (Rtev.start ~registry ());
  Rtev.reset_stats ();
  churn ();
  ignore (Rtev.poll ());
  Alcotest.(check bool) "decoded at least one pause" true
    (Rtev.pause_count () > 0);
  Alcotest.(check bool) "pause durations are nonzero" true
    (Rtev.total_pause_ns () > 0);
  Alcotest.(check bool) "max <= total" true
    (Rtev.max_pause_ns () <= Rtev.total_pause_ns ());
  Alcotest.(check bool) "max is nonzero" true (Rtev.max_pause_ns () > 0);
  (* The registry mirrors the counters: aggregate histogram count matches
     since reset_stats zeroed counters right after binding. *)
  let agg = Registry.histo_summary (Registry.histo registry "gc_pause_ns") in
  Alcotest.(check bool) "registry histogram fed" true
    (agg.Obs.Histo.count > 0);
  Alcotest.(check bool) "registry max nonzero" true (agg.Obs.Histo.max > 0);
  (* Per-ring attribution adds up to the aggregate. *)
  let counts = domain_series registry "gc_pauses_total" in
  Alcotest.(check bool) "per-ring series exist" true (counts <> []);
  Alcotest.(check int) "ring pauses sum to total" agg.Obs.Histo.count
    (sum_series counts);
  Alcotest.(check int) "ring ns sum to total" agg.Obs.Histo.sum
    (sum_series (domain_series registry "gc_pause_ns_sum"))

let test_live_multi_domain_attribution () =
  let registry = Registry.create () in
  Alcotest.(check bool) "consumer starts" true (Rtev.start ~registry ());
  Rtev.reset_stats ();
  (* Two extra domains churn concurrently with the main one: their minor
     collections land on their own rings. *)
  let workers =
    Array.init 2 (fun _ -> Domain.spawn (fun () -> churn ()))
  in
  churn ();
  Array.iter Domain.join workers;
  ignore (Rtev.poll ());
  let counts = domain_series registry "gc_pauses_total" in
  Alcotest.(check bool)
    (Printf.sprintf "pauses attributed to >= 2 rings (saw %d)"
       (List.length counts))
    true
    (List.length counts >= 2);
  let maxes = domain_series registry "gc_pause_ns_max" in
  List.iter
    (fun (ring, total) ->
      let max_ns = List.assoc ring maxes in
      Alcotest.(check bool)
        (Printf.sprintf "ring %s total covers its max" ring)
        true
        (total >= max_ns && max_ns > 0))
    (domain_series registry "gc_pause_ns_sum")

let test_live_trace_injection () =
  let registry = Registry.create () in
  Trace.reset ();
  Trace.enable ();
  Alcotest.(check bool) "consumer starts with trace" true
    (Rtev.start ~registry ~trace:true ());
  Rtev.reset_stats ();
  churn ();
  ignore (Rtev.poll ());
  (* One more poll: injection may have waited on the clock-sync offset. *)
  ignore (Rtev.poll ());
  Trace.disable ();
  let gc_spans =
    List.filter
      (fun e -> e.Trace.cat = "gc" && e.Trace.ph = Trace.Complete)
      (Trace.events ())
  in
  Alcotest.(check bool) "GC pause spans injected" true (gc_spans <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "synthetic per-domain track" true (e.Trace.tid >= 1000);
      Alcotest.(check bool) "positive duration" true (e.Trace.dur_ns > 0);
      Alcotest.(check bool) "gc: name prefix" true
        (String.length e.Trace.name > 3 && String.sub e.Trace.name 0 3 = "gc:"))
    gc_spans;
  (* The wall-clock offset mapped runtime timestamps into the Obs clock:
     spans must land within the last few minutes, not at monotonic 0. *)
  let now = Obs.Clock.now_ns () in
  List.iter
    (fun e ->
      Alcotest.(check bool) "timestamp on the Obs clock" true
        (abs (now - e.Trace.ts_ns) < 600 * 1_000_000_000))
    gc_spans

let test_live_pause_budget () =
  let registry = Registry.create () in
  Alcotest.(check bool) "consumer starts" true (Rtev.start ~registry ());
  Rtev.reset_stats ();
  (* A 1 ns budget: any real pause breaches it. *)
  Rtev.set_pause_budget_ns (Some 1);
  churn ();
  ignore (Rtev.poll ());
  Rtev.set_pause_budget_ns None;
  Alcotest.(check bool) "breaches recorded" true (Rtev.budget_breaches () > 0);
  Alcotest.(check bool) "breach counter in registry" true
    (Registry.value
       (Registry.counter registry "gc_pause_budget_breaches_total")
     > 0);
  (* reset_stats clears the glue counters. *)
  Rtev.reset_stats ();
  Alcotest.(check int) "breaches reset" 0 (Rtev.budget_breaches ());
  Alcotest.(check int) "pauses reset" 0 (Rtev.pause_count ())

(* [k] domains parked in short sleeps while [f] runs.  Each one joins
   every stop-the-world collection, so each one's ring reports it. *)
let with_idle_domains k f =
  let stop = Atomic.make false in
  let ds =
    List.init k (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Unix.sleepf 0.001
            done))
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Domain.join ds)
    f

(* Register [start_ns, end_ns) and return every charge [k] received
   after one more poll (a second poll must not charge it again). *)
let charges ~start_ns ~end_ns =
  let got = ref [] in
  Rtev.charge ~start_ns ~end_ns (fun ns -> got := ns :: !got);
  ignore (Rtev.poll ());
  ignore (Rtev.poll ());
  !got

let test_charge_forced_gc_once () =
  let registry = Registry.create () in
  Alcotest.(check bool) "consumer starts" true (Rtev.start ~registry ());
  with_idle_domains 3 (fun () ->
      ignore (Rtev.poll ());
      Rtev.reset_stats ();
      let t0 = Obs.Clock.now_ns () in
      Gc.minor ();
      let t1 = Obs.Clock.now_ns () in
      match charges ~start_ns:t0 ~end_ns:t1 with
      | [ ns ] ->
        Alcotest.(check bool) "the collection was decoded" true
          (Rtev.pause_count () > 0);
        Alcotest.(check bool)
          (Printf.sprintf "charged %d ns > 0" ns)
          true (ns > 0);
        Alcotest.(check bool)
          (Printf.sprintf "charged %d ns <= window %d ns" ns (t1 - t0))
          true
          (ns <= t1 - t0)
      | l -> Alcotest.failf "window charged %d times" (List.length l))

let test_charge_pause_polled_late () =
  let registry = Registry.create () in
  Alcotest.(check bool) "consumer starts" true (Rtev.start ~registry ());
  with_idle_domains 3 (fun () ->
      ignore (Rtev.poll ());
      Rtev.reset_stats ();
      Gc.minor ();
      (* The parked domains leave the collection up to ~10 us after this
         one does; the sleep puts every ring's part of it before the
         window, and the window's poll is the first to read it. *)
      Unix.sleepf 0.005;
      let t0 = Obs.Clock.now_ns () in
      ignore (Rtev.poll ());
      let t1 = Obs.Clock.now_ns () in
      Alcotest.(check bool) "the pause was first read inside the window"
        true
        (Rtev.pause_count () > 0);
      Alcotest.(check (list int)) "charged 0, once" [ 0 ]
        (charges ~start_ns:t0 ~end_ns:t1))

(* --------------------------------------------------------------------- *)

let () =
  let live name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rtev"
    [
      ( "decode",
        [
          Alcotest.test_case "flat pause" `Quick test_decode_flat_pause;
          Alcotest.test_case "nesting" `Quick test_decode_nesting;
          Alcotest.test_case "excluded phases" `Quick test_decode_excluded;
          Alcotest.test_case "phase classification" `Quick test_decode_classify;
          Alcotest.test_case "multi-ring interleave" `Quick
            test_decode_multi_ring;
          Alcotest.test_case "lost events reset" `Quick
            test_decode_lost_events;
          Alcotest.test_case "unmatched end" `Quick test_decode_unmatched_end;
        ] );
      ( "live",
        [
          live "forced-GC capture" test_live_forced_gc_capture;
          live "multi-domain attribution" test_live_multi_domain_attribution;
          live "trace injection" test_live_trace_injection;
          live "pause budget" test_live_pause_budget;
          live "charge: collection in the window, once" test_charge_forced_gc_once;
          live "charge: pause polled late is not charged"
            test_charge_pause_polled_late;
        ] );
    ]

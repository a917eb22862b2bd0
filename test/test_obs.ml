(* Tests for the ctg_obs observability layer: histogram merge algebra and
   quantile error bounds, registry exposition and reset atomicity, trace
   JSON parse-back, CT/entropy monitors, and the Engine.Metrics
   snapshot-vs-reset torn-read guarantee. *)

module Obs = Ctg_obs
module Histo = Ctg_obs.Histo
module Registry = Ctg_obs.Registry
module Trace = Ctg_obs.Trace
module Jsonx = Ctg_obs.Jsonx
module Ctmon = Ctg_obs.Ctmon
module Promtext = Ctg_obs.Promtext
module Prof = Ctg_prof.Prof

(* --------------------------------------------------------------------- *)
(* Histograms *)

let histo_of_list xs =
  let h = Histo.create () in
  List.iter (Histo.add h) xs;
  h

let values_gen = QCheck.(list_of_size Gen.(0 -- 200) (int_bound 100_000))

let test_histo_merge_commutative =
  QCheck.Test.make ~count:200 ~name:"Histo.merge commutative"
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      let a = histo_of_list xs and b = histo_of_list ys in
      Histo.equal (Histo.merge a b) (Histo.merge b a))

let test_histo_merge_associative =
  QCheck.Test.make ~count:200 ~name:"Histo.merge associative"
    QCheck.(triple values_gen values_gen values_gen)
    (fun (xs, ys, zs) ->
      let a = histo_of_list xs
      and b = histo_of_list ys
      and c = histo_of_list zs in
      Histo.equal
        (Histo.merge (Histo.merge a b) c)
        (Histo.merge a (Histo.merge b c)))

let test_histo_merge_counts =
  QCheck.Test.make ~count:200 ~name:"Histo.merge adds counts and sums"
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      let a = histo_of_list xs and b = histo_of_list ys in
      let m = Histo.merge a b in
      Histo.count m = Histo.count a + Histo.count b
      && Histo.sum m = Histo.sum a + Histo.sum b
      (* merge leaves its inputs unchanged *)
      && Histo.count a = List.length xs
      && Histo.count b = List.length ys)

(* The documented error bound: for a non-empty histogram the estimate for
   quantile q lies in [v, v + v/4 + 1] where v is the exact q-quantile
   (rank ceil(q*count), 1-based, clamped to [1, count]). *)
let exact_quantile xs q =
  let sorted = List.sort compare xs in
  let n = List.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
  List.nth sorted (rank - 1)

let test_histo_quantile_bound =
  QCheck.Test.make ~count:300 ~name:"Histo.quantile within [v, v + v/4 + 1]"
    QCheck.(list_of_size Gen.(1 -- 300) (int_bound 1_000_000))
    (fun xs ->
      let h = histo_of_list xs in
      List.for_all
        (fun q ->
          let v = exact_quantile xs q in
          let e = Histo.quantile h q in
          v <= e && e <= v + (v / 4) + 1)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ])

let test_histo_edge_cases () =
  let h = Histo.create () in
  Alcotest.(check int) "empty quantile" 0 (Histo.quantile h 0.5);
  Alcotest.(check int) "empty count" 0 (Histo.count h);
  Histo.add h (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (Histo.quantile h 1.0);
  Alcotest.(check int) "clamped sum" 0 (Histo.sum h);
  let c = Histo.copy h in
  Histo.add c 7;
  Alcotest.(check int) "copy is independent" 1 (Histo.count h);
  Alcotest.(check int) "copy got the value" 2 (Histo.count c);
  let s = Histo.summary c in
  Alcotest.(check int) "summary min" 0 s.Histo.min;
  Alcotest.(check int) "summary max" 7 s.Histo.max;
  (* buckets are ascending and cover every recorded value *)
  let b = Histo.buckets c in
  Alcotest.(check int) "bucket total" 2
    (List.fold_left (fun acc (_, _, n) -> acc + n) 0 b);
  ignore
    (List.fold_left
       (fun prev (lo, hi, _) ->
         Alcotest.(check bool) "lo <= hi" true (lo <= hi);
         Alcotest.(check bool) "ascending" true (prev <= lo);
         hi)
       (-1) b)

(* Adversarial inputs for the quantile bound: the log-bucket boundaries
   (4+s)*2^(m-2) and their off-by-one neighbours, which is exactly where
   the relative bucket width — and hence the documented error v/4 + 1 —
   peaks.  A random values_gen draw almost never lands on these. *)
let test_histo_adversarial_boundaries () =
  let xs = ref [] in
  for m = 2 to 24 do
    for s = 0 to 3 do
      let b = (4 + s) * (1 lsl (m - 2)) in
      xs := (b - 1) :: b :: (b + 1) :: !xs
    done
  done;
  let xs = !xs in
  let h = histo_of_list xs in
  List.iter
    (fun q ->
      let v = exact_quantile xs q in
      let e = Histo.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%g: estimate %d within [%d, %d]" q e v
           (v + (v / 4) + 1))
        true
        (v <= e && e <= v + (v / 4) + 1))
    [ 0.0; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]

(* --------------------------------------------------------------------- *)
(* Registry *)

let test_registry_basics () =
  let r = Registry.create () in
  let c = Registry.counter r ~labels:[ ("sigma", "2") ] "samples_total" in
  Registry.add c 40;
  Registry.incr c;
  Alcotest.(check int) "counter value" 41 (Registry.value c);
  let c' = Registry.counter r ~labels:[ ("sigma", "2") ] "samples_total" in
  Registry.incr c';
  Alcotest.(check int) "same handle for same (name, labels)" 42
    (Registry.value c);
  let g = Registry.gauge r "entropy_bits" in
  Registry.set_gauge g 8.5;
  Alcotest.(check (float 1e-9)) "gauge" 8.5 (Registry.gauge_value g)

let test_registry_label_canonicalization () =
  let r = Registry.create () in
  let a = Registry.counter r ~labels:[ ("b", "2"); ("a", "1") ] "x_total" in
  let b = Registry.counter r ~labels:[ ("a", "1"); ("b", "2") ] "x_total" in
  Registry.incr a;
  Registry.incr b;
  Alcotest.(check int) "label order irrelevant" 2 (Registry.value a)

let test_registry_kind_mismatch () =
  let r = Registry.create () in
  ignore (Registry.counter r "metric_x");
  Alcotest.check_raises "histo under a counter name"
    (Invalid_argument "Registry: metric_x already registered as a counter")
    (fun () -> ignore (Registry.histo r "metric_x"))

let test_registry_exposition_deterministic () =
  (* Same metrics registered in different orders expose identically. *)
  let build order =
    let r = Registry.create () in
    List.iter
      (fun name ->
        let c = Registry.counter r ~labels:[ ("sigma", "2") ] name in
        Registry.add c (String.length name))
      order;
    Registry.set_gauge (Registry.gauge r "ct_entropy_bits_per_sample") 7.25;
    Registry.observe (Registry.histo r "chunk_service_ns") 1000;
    Registry.expose_text r
  in
  let t1 = build [ "alpha_total"; "beta_total"; "gamma_total" ] in
  let t2 = build [ "gamma_total"; "alpha_total"; "beta_total" ] in
  Alcotest.(check string) "order-independent exposition" t1 t2;
  Alcotest.(check bool) "has TYPE comments" true
    (String.length t1 > 0
    && List.exists
         (fun line -> String.starts_with ~prefix:"# TYPE" line)
         (String.split_on_char '\n' t1))

let test_registry_json_parses_back () =
  let r = Registry.create () in
  Registry.add (Registry.counter r ~labels:[ ("sigma", "215") ] "samples_total") 63;
  Registry.observe (Registry.histo r "service_ns") 12345;
  let j = Registry.to_json r in
  match Jsonx.parse (Jsonx.to_string j) with
  | Error e -> Alcotest.failf "exposition JSON does not parse: %s" e
  | Ok parsed ->
    let metrics =
      match Option.bind (Jsonx.member "metrics" parsed) Jsonx.to_list with
      | Some l -> l
      | None -> Alcotest.fail "missing metrics array"
    in
    Alcotest.(check int) "two metrics" 2 (List.length metrics)

let test_promtext_roundtrip () =
  (* The /metrics contract: Promtext.parse consumes exactly what
     Registry.expose_text writes, and render inverts it byte-for-byte —
     including escaped label values and histogram expansion. *)
  let r = Registry.create () in
  Registry.add
    (Registry.counter r
       ~labels:[ ("lane", "3"); ("sigma", "6.15543") ]
       "assure_samples_total")
    12345;
  Registry.add (Registry.counter r "plain_total") 1;
  Registry.set_gauge
    (Registry.gauge r ~labels:[ ("probe", "a\"b\\c\nd") ] "leak_t")
    (-3.75);
  let h = Registry.histo r "service_ns" in
  List.iter (Registry.observe h) [ 1; 5; 17; 4096 ];
  let text = Registry.expose_text r in
  match Promtext.parse text with
  | Error e -> Alcotest.failf "Promtext.parse rejected expose_text: %s" e
  | Ok items ->
    Alcotest.(check string) "render inverts parse" text (Promtext.render items);
    Alcotest.(check (option (float 1e-9)))
      "labeled counter readable" (Some 12345.0)
      (Promtext.value items ~name:"assure_samples_total"
         ~labels:[ ("lane", "3"); ("sigma", "6.15543") ]);
    Alcotest.(check (option (float 1e-9)))
      "escapes survive the trip" (Some (-3.75))
      (Promtext.value items ~name:"leak_t"
         ~labels:[ ("probe", "a\"b\\c\nd") ]);
    Alcotest.(check (option (float 1e-9)))
      "histogram count expanded" (Some 4.0)
      (Promtext.value items ~name:"service_ns_count" ~labels:[]);
    let names =
      List.filter_map (function
        | Promtext.Type { name; _ } -> Some name
        | Promtext.Sample _ -> None)
      items
    in
    Alcotest.(check bool) "one TYPE per family" true
      (List.length names = List.length (List.sort_uniq compare names))

let test_promtext_rejects_garbage () =
  (match Promtext.parse "this is { not metrics" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error e ->
    Alcotest.(check bool) "error names a line" true
      (String.length e > 0));
  match Promtext.parse "x_total nan_but_not 1" with
  | Ok _ -> Alcotest.fail "accepted a non-float sample"
  | Error _ -> ()

let test_registry_reset_generation () =
  let r = Registry.create () in
  let c = Registry.counter r "n_total" in
  Registry.add c 5;
  Alcotest.(check int) "gen 0" 0 (Registry.generation r);
  Registry.reset r;
  Alcotest.(check int) "gen 1" 1 (Registry.generation r);
  Alcotest.(check int) "counter zeroed" 0 (Registry.value c);
  Registry.reset r;
  Alcotest.(check int) "gen 2" 2 (Registry.generation r)

(* Snapshot racing reset must observe all-old or all-zero, never a mix.
   Populate two counters with equal values, then race one reset against a
   read_consistent reader, many times. *)
let test_registry_reset_not_torn () =
  let r = Registry.create () in
  let a = Registry.counter r "a_total" and b = Registry.counter r "b_total" in
  for _trial = 1 to 200 do
    Registry.add a 1_000_000;
    Registry.add b 1_000_000;
    let resetter = Domain.spawn (fun () -> Registry.reset r) in
    let va, vb =
      Registry.read_consistent r (fun () ->
          (Registry.value a, Registry.value b))
    in
    Domain.join resetter;
    if va <> vb then
      Alcotest.failf "torn snapshot: a_total=%d b_total=%d" va vb;
    Registry.reset r
  done

(* --------------------------------------------------------------------- *)
(* Engine.Metrics snapshot vs reset *)

let test_engine_metrics_snapshot_not_torn () =
  let m = Ctg_engine.Metrics.create ~domains:2 () in
  let populate () =
    Ctg_engine.Metrics.record m ~domain:0 ~samples:63 ~batches:1 ~bits:6300
      ~work:100 ~gates:5000;
    Ctg_engine.Metrics.record m ~domain:1 ~samples:63 ~batches:1 ~bits:6300
      ~work:100 ~gates:5000
  in
  for _trial = 1 to 100 do
    populate ();
    let resetter = Domain.spawn (fun () -> Ctg_engine.Metrics.reset m) in
    let s = Ctg_engine.Metrics.snapshot m in
    Domain.join resetter;
    (* Either the pre-reset state (2 batches, proportional counters) or
       the post-reset state (all zero) — never a half-zeroed mix. *)
    let all_old =
      s.Ctg_engine.Metrics.samples = 126
      && s.Ctg_engine.Metrics.batches = 2
      && s.Ctg_engine.Metrics.bits_consumed = 12600
      && s.Ctg_engine.Metrics.gate_evals = 10000
    and all_zero =
      s.Ctg_engine.Metrics.samples = 0
      && s.Ctg_engine.Metrics.batches = 0
      && s.Ctg_engine.Metrics.bits_consumed = 0
      && s.Ctg_engine.Metrics.gate_evals = 0
    in
    if not (all_old || all_zero) then
      Alcotest.failf
        "torn engine snapshot: samples=%d batches=%d bits=%d gates=%d"
        s.Ctg_engine.Metrics.samples s.Ctg_engine.Metrics.batches
        s.Ctg_engine.Metrics.bits_consumed s.Ctg_engine.Metrics.gate_evals;
    Ctg_engine.Metrics.reset m
  done

let test_engine_metrics_accounting () =
  let m = Ctg_engine.Metrics.create ~domains:2 () in
  Ctg_engine.Metrics.record m ~domain:1 ~samples:63 ~batches:1 ~bits:6300
    ~work:42 ~gates:3706;
  Ctg_engine.Metrics.add_fallback m 2;
  Ctg_engine.Metrics.observe_chunk_service m 1_000_000;
  let s = Ctg_engine.Metrics.snapshot m in
  Alcotest.(check int) "samples" 63 s.Ctg_engine.Metrics.samples;
  Alcotest.(check int) "per-domain attribution" 63
    s.Ctg_engine.Metrics.per_domain_samples.(1);
  Alcotest.(check int) "idle domain" 0
    s.Ctg_engine.Metrics.per_domain_samples.(0);
  Alcotest.(check int) "fallbacks" 2 s.Ctg_engine.Metrics.fallback_resamples;
  Alcotest.(check int) "service histo count" 1
    s.Ctg_engine.Metrics.chunk_service.Histo.count

(* --------------------------------------------------------------------- *)
(* Trace *)

let with_tracing f =
  Trace.reset ();
  Trace.enable ();
  Fun.protect ~finally:(fun () -> Trace.disable ()) f

let test_trace_spans_and_export () =
  with_tracing (fun () ->
      let result =
        Trace.with_span "outer" ~cat:"test" (fun () ->
            Trace.with_span "inner" ~cat:"test"
              ~args:(fun () -> [ ("k", "v") ])
              (fun () -> 1 + 1))
      in
      Alcotest.(check int) "with_span returns" 2 result;
      Trace.instant "marker" ~cat:"test";
      let evs = Trace.events () in
      Alcotest.(check int) "three events" 3 (List.length evs);
      let names = List.map (fun e -> e.Trace.name) evs in
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " recorded") true (List.mem n names))
        [ "outer"; "inner"; "marker" ];
      let inner = List.find (fun e -> e.Trace.name = "inner") evs in
      let outer = List.find (fun e -> e.Trace.name = "outer") evs in
      let marker = List.find (fun e -> e.Trace.name = "marker") evs in
      Alcotest.(check bool) "inner nested in outer" true
        (inner.Trace.ts_ns >= outer.Trace.ts_ns
        && inner.Trace.dur_ns <= outer.Trace.dur_ns);
      Alcotest.(check int) "instant has dur -1" (-1) marker.Trace.dur_ns;
      Alcotest.(check (list (pair string string))) "span args" [ ("k", "v") ]
        inner.Trace.args;
      (* Chrome JSON parses back and has the right shape. *)
      match Jsonx.parse (Jsonx.to_string (Trace.export ())) with
      | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
      | Ok j ->
        let evs_json =
          match Option.bind (Jsonx.member "traceEvents" j) Jsonx.to_list with
          | Some l -> l
          | None -> Alcotest.fail "missing traceEvents"
        in
        Alcotest.(check int) "traceEvents count" 3 (List.length evs_json);
        List.iter
          (fun e ->
            let field name = Option.bind (Jsonx.member name e) Jsonx.to_str in
            let ph =
              match field "ph" with
              | Some p -> p
              | None -> Alcotest.fail "event without ph"
            in
            Alcotest.(check bool) "ph is X or i" true (ph = "X" || ph = "i");
            Alcotest.(check bool) "has ts" true
              (Option.is_some (Jsonx.member "ts" e));
            Alcotest.(check bool) "has tid" true
              (Option.is_some (Jsonx.member "tid" e)))
          evs_json;
        Alcotest.(check (option int)) "no drops" (Some 0)
          (Option.bind (Jsonx.member "ctg_dropped_events" j) Jsonx.to_int))

let test_trace_disabled_is_free_of_effects () =
  Trace.reset ();
  Alcotest.(check bool) "disabled" false (Trace.is_enabled ());
  let r = Trace.with_span "ghost" (fun () -> 7) in
  Alcotest.(check int) "still runs the thunk" 7 r;
  Alcotest.(check int) "records nothing" 0 (List.length (Trace.events ()))

let test_trace_exception_still_records () =
  with_tracing (fun () ->
      (try Trace.with_span "boom" (fun () -> failwith "x") with _ -> ());
      let evs = Trace.events () in
      Alcotest.(check int) "span recorded on exception" 1 (List.length evs))

(* The causal chain of one request: flow start inside the request span,
   a step inside the batch span, the end inside the sign span — all
   sharing one id, with the terminator bound to its enclosing slice. *)
let test_trace_flow_events () =
  with_tracing (fun () ->
      Trace.with_span "request" ~cat:"serve" (fun () ->
          Trace.flow_start ~id:7 "sig");
      Trace.with_span "batch" ~cat:"serve" (fun () ->
          Trace.flow_step ~id:7 "sig");
      Trace.with_span "sign" ~cat:"falcon" (fun () ->
          Trace.flow_end ~id:7 "sig");
      let evs = Trace.events () in
      Alcotest.(check int) "three spans + three flow events" 6
        (List.length evs);
      let flow ph =
        List.find (fun e -> e.Trace.ph = ph && e.Trace.name = "sig") evs
      in
      List.iter
        (fun e -> Alcotest.(check int) "flow id shared" 7 e.Trace.id)
        [ flow Trace.Flow_start; flow Trace.Flow_step; flow Trace.Flow_end ];
      List.iter
        (fun e ->
          Alcotest.(check bool) "spans carry no flow id" true
            (e.Trace.ph <> Trace.Complete || e.Trace.id = -1))
        evs;
      match Jsonx.parse (Jsonx.to_string (Trace.export ())) with
      | Error e -> Alcotest.failf "flow trace JSON does not parse: %s" e
      | Ok j ->
        let evs_json =
          match Option.bind (Jsonx.member "traceEvents" j) Jsonx.to_list with
          | Some l -> l
          | None -> Alcotest.fail "missing traceEvents"
        in
        let with_ph p =
          List.filter
            (fun e -> Jsonx.member "ph" e = Some (Jsonx.Str p))
            evs_json
        in
        List.iter
          (fun (p, label) ->
            match with_ph p with
            | [ e ] ->
              Alcotest.(check (option int)) (label ^ " keeps the flow id")
                (Some 7)
                (Option.bind (Jsonx.member "id" e) Jsonx.to_int)
            | l -> Alcotest.failf "expected one %s event, got %d" label
                     (List.length l))
          [ ("s", "flow start"); ("t", "flow step"); ("f", "flow end") ];
        (match with_ph "f" with
        | [ e ] ->
          Alcotest.(check (option string))
            "flow end binds to enclosing slice" (Some "e")
            (Option.bind (Jsonx.member "bp" e) Jsonx.to_str)
        | _ -> assert false))

(* Multi-domain emission into deliberately tiny rings: whatever survives
   the wrap must be whole (args still matching) and come from the newest
   window, with every overwritten event counted as dropped. *)
let test_trace_ring_wraparound () =
  Trace.reset ();
  Trace.enable ~capacity:32 ();
  Fun.protect
    ~finally:(fun () -> Trace.disable ())
    (fun () ->
      let per_domain = 100 in
      let doms =
        Array.init 2 (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to per_domain - 1 do
                  Trace.instant "wrap" ~cat:"test"
                    ~args:(fun () ->
                      [ ("k", string_of_int ((d * 1000) + i)) ])
                done))
      in
      Array.iter Domain.join doms;
      let evs =
        List.filter (fun e -> e.Trace.name = "wrap") (Trace.events ())
      in
      let dropped = Trace.dropped () in
      Alcotest.(check bool) "rings overwrote" true
        (dropped >= 2 * (per_domain - 32));
      Alcotest.(check bool) "survivors remain" true (List.length evs > 0);
      Alcotest.(check int) "survivors + drops = emitted" (2 * per_domain)
        (List.length evs + dropped);
      List.iter
        (fun e ->
          match e.Trace.args with
          | [ ("k", v) ] ->
            let k = int_of_string v in
            Alcotest.(check bool) "survivor is from the newest window" true
              (k mod 1000 >= per_domain - 32)
          | args ->
            Alcotest.failf "torn event args (%d pairs)" (List.length args))
        evs)

(* Per-span Gc capture: a span that allocates a 10k-word array must show
   it in its deltas, every delta is non-negative, and the observer hook
   sees each captured span.  Arrays over 256 words allocate directly on
   the major heap, so the assertion checks the minor+major sum. *)
let test_trace_gc_capture_args () =
  with_tracing (fun () ->
      Trace.set_gc_capture true;
      let observed = ref 0 in
      Trace.set_gc_observer
        (Some
           (fun ~name:_ ~minor ~promoted ~major ~start_ns ~dur_ns ->
             Alcotest.(check bool) "observer deltas non-negative" true
               (minor >= 0.0 && promoted >= 0.0 && major >= 0.0
              && start_ns >= 0 && dur_ns >= 0);
             incr observed));
      Fun.protect
        ~finally:(fun () ->
          Trace.set_gc_observer None;
          Trace.set_gc_capture false)
        (fun () ->
          Trace.with_span "alloc_heavy" (fun () ->
              ignore (Sys.opaque_identity (Array.make 10_000 0.0)));
          Trace.with_span "alloc_light" (fun () -> ());
          let evs = Trace.events () in
          let span name = List.find (fun e -> e.Trace.name = name) evs in
          let words e key =
            match List.assoc_opt key e.Trace.args with
            | Some v -> float_of_string v
            | None -> Alcotest.failf "%s missing %s" e.Trace.name key
          in
          List.iter
            (fun e ->
              List.iter
                (fun key ->
                  Alcotest.(check bool)
                    (e.Trace.name ^ " " ^ key ^ " non-negative") true
                    (words e key >= 0.0))
                [
                  "alloc_minor_words";
                  "alloc_promoted_words";
                  "alloc_major_words";
                ])
            [ span "alloc_heavy"; span "alloc_light" ];
          Alcotest.(check bool) "10k-word array visible in span deltas" true
            (words (span "alloc_heavy") "alloc_minor_words"
             +. words (span "alloc_heavy") "alloc_major_words"
             >= 10_000.0);
          Alcotest.(check int) "observer saw both spans" 2 !observed))

(* The ctg_prof aggregation on top: labels ranked by minor words. *)
let test_prof_report_ranking () =
  let was_tracing = Trace.is_enabled () in
  Trace.reset ();
  Prof.enable ();
  Prof.reset ();
  Fun.protect
    ~finally:(fun () ->
      Prof.disable ();
      if not was_tracing then Trace.disable ())
    (fun () ->
      Alcotest.(check bool) "profiling active" true (Prof.active ());
      for _ = 1 to 3 do
        Trace.with_span "hungry" (fun () ->
            (* 100-word arrays stay in the minor heap. *)
            for _ = 1 to 100 do
              ignore (Sys.opaque_identity (Array.make 100 0.0))
            done)
      done;
      Trace.with_span "frugal" (fun () ->
          ignore (Sys.opaque_identity (ref 0)));
      let rows = Prof.report () in
      let row label =
        match List.find_opt (fun r -> r.Prof.label = label) rows with
        | Some r -> r
        | None -> Alcotest.failf "missing row %s" label
      in
      Alcotest.(check int) "hungry span count" 3 (row "hungry").Prof.spans;
      Alcotest.(check int) "frugal span count" 1 (row "frugal").Prof.spans;
      Alcotest.(check bool) "hungry out-allocates frugal" true
        ((row "hungry").Prof.minor_words > (row "frugal").Prof.minor_words);
      let pos label =
        let rec go i = function
          | [] -> Alcotest.failf "row %s not ranked" label
          | r :: _ when r.Prof.label = label -> i
          | _ :: tl -> go (i + 1) tl
        in
        go 0 rows
      in
      Alcotest.(check bool) "ranked by minor words" true
        (pos "hungry" < pos "frugal");
      match Jsonx.parse (Jsonx.to_string (Prof.report_json ())) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "prof report JSON does not parse: %s" e);
  Prof.reset ()

(* --------------------------------------------------------------------- *)
(* Jsonx *)

let test_jsonx_roundtrip () =
  let v =
    Jsonx.Obj
      [
        ("s", Jsonx.Str "a\"b\\c\nd");
        ("n", Jsonx.Num 1.5);
        ("i", Jsonx.Num 42.0);
        ("b", Jsonx.Bool true);
        ("z", Jsonx.Null);
        ("l", Jsonx.List [ Jsonx.Num 1.0; Jsonx.Str "x"; Jsonx.Bool false ]);
      ]
  in
  (match Jsonx.parse (Jsonx.to_string v) with
  | Ok v' -> Alcotest.(check bool) "compact roundtrip" true (v = v')
  | Error e -> Alcotest.failf "compact parse failed: %s" e);
  match Jsonx.parse (Jsonx.pretty v) with
  | Ok v' -> Alcotest.(check bool) "pretty roundtrip" true (v = v')
  | Error e -> Alcotest.failf "pretty parse failed: %s" e

let test_jsonx_rejects_garbage () =
  List.iter
    (fun s ->
      match Jsonx.parse s with
      | Ok _ -> Alcotest.failf "parsed garbage: %s" s
      | Error _ -> ())
    [ "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "" ]

(* --------------------------------------------------------------------- *)
(* CT / entropy monitor *)

let test_ctmon_constant_time_clean () =
  let m = Ctmon.create ~registry:(Registry.create ()) () in
  Alcotest.(check int) "unlearned" 0 (Ctmon.expected_bits m);
  for _ = 1 to 100 do
    Ctmon.observe_batch m ~bits:6300 ~samples:63 ()
  done;
  Alcotest.(check int) "learned bits" 6300 (Ctmon.expected_bits m);
  Alcotest.(check int) "no violations" 0 (Ctmon.violations m);
  Alcotest.(check int) "no fallbacks" 0 (Ctmon.fallback_batches m);
  Alcotest.(check (float 1e-6)) "entropy bits/sample" 100.0
    (Ctmon.entropy_bits_per_sample m)

(* A non-constant-time sampler stub: per-batch bit counts vary without a
   declared fallback — the monitor must fire. *)
let test_ctmon_fires_on_non_ct_stub () =
  let m = Ctmon.create ~registry:(Registry.create ()) () in
  Ctmon.observe_batch m ~bits:100 ~samples:1 ();
  Ctmon.observe_batch m ~bits:100 ~samples:1 ();
  Ctmon.observe_batch m ~bits:107 ~samples:1 ();
  Ctmon.observe_batch m ~bits:93 ~samples:1 ();
  Alcotest.(check int) "two violations" 2 (Ctmon.violations m);
  Alcotest.(check int) "no fallbacks claimed" 0 (Ctmon.fallback_batches m)

let test_ctmon_fallback_classification () =
  let m = Ctmon.create ~registry:(Registry.create ()) () in
  Ctmon.observe_batch m ~bits:6300 ~samples:63 ();
  Ctmon.observe_batch m ~bits:6350 ~samples:63 ~fallback:true ();
  Alcotest.(check int) "declared fallback is not a violation" 0
    (Ctmon.violations m);
  Alcotest.(check int) "fallback counted" 1 (Ctmon.fallback_batches m)

(* Degraded-engine edge cases: fallback batches may arrive first, last,
   alternating or exclusively, and must never teach the expectation. *)

let test_ctmon_first_batch_is_fallback () =
  let m = Ctmon.create ~registry:(Registry.create ()) () in
  Ctmon.observe_batch m ~bits:7777 ~samples:63 ~fallback:true ();
  Alcotest.(check int) "fallback did not teach" 0 (Ctmon.expected_bits m);
  (* The first *normal* batch teaches, and is judged against itself. *)
  Ctmon.observe_batch m ~bits:6300 ~samples:63 ();
  Alcotest.(check int) "normal batch taught" 6300 (Ctmon.expected_bits m);
  Ctmon.observe_batch m ~bits:6300 ~samples:63 ();
  Alcotest.(check int) "no violations" 0 (Ctmon.violations m);
  Alcotest.(check int) "one fallback" 1 (Ctmon.fallback_batches m)

let test_ctmon_alternating_fallback_normal () =
  let m = Ctmon.create ~registry:(Registry.create ()) () in
  for i = 1 to 10 do
    if i mod 2 = 0 then
      (* Data-dependent fallback draws, all different. *)
      Ctmon.observe_batch m ~bits:(6300 + (i * 17)) ~samples:63 ~fallback:true
        ()
    else Ctmon.observe_batch m ~bits:6300 ~samples:63 ()
  done;
  Alcotest.(check int) "alternation stays clean" 0 (Ctmon.violations m);
  Alcotest.(check int) "five fallbacks" 5 (Ctmon.fallback_batches m);
  Alcotest.(check int) "expectation untouched" 6300 (Ctmon.expected_bits m)

let test_ctmon_fallback_only_then_deviating_normal () =
  let m = Ctmon.create ~registry:(Registry.create ()) () in
  (* A degraded pool's whole life: nothing but fallback batches. *)
  for i = 1 to 20 do
    Ctmon.observe_batch m ~bits:(100 + i) ~samples:1 ~fallback:true ()
  done;
  Alcotest.(check int) "still unlearned" 0 (Ctmon.expected_bits m);
  Alcotest.(check int) "no violations" 0 (Ctmon.violations m);
  (* Had any fallback taught, this first normal batch would be flagged. *)
  Ctmon.observe_batch m ~bits:6300 ~samples:63 ();
  Alcotest.(check int) "first normal batch clean" 0 (Ctmon.violations m);
  (* ... and a genuinely deviating normal batch still is. *)
  Ctmon.observe_batch m ~bits:6301 ~samples:63 ();
  Alcotest.(check int) "real deviation flagged" 1 (Ctmon.violations m)

let test_ctmon_record_chunk () =
  let m = Ctmon.create ~registry:(Registry.create ()) () in
  Ctmon.record_chunk m ~batches:16 ~bits:100_800 ~samples:1008 ~deviations:3
    ~fallbacks:2;
  Alcotest.(check int) "bulk violations" 3 (Ctmon.violations m);
  Alcotest.(check int) "bulk fallbacks" 2 (Ctmon.fallback_batches m);
  Alcotest.(check (float 1e-6)) "bulk entropy" 100.0
    (Ctmon.entropy_bits_per_sample m)

(* Over the engine's metrics the monitor exposes the engine's totals under
   its own names and never adds them itself; the entropy gauge is derived
   when read and follows a reset. *)
let test_ctmon_shared_totals () =
  let m = Ctg_engine.Metrics.create ~domains:1 ~labels:[ ("sigma", "2") ] () in
  let r = Ctg_engine.Metrics.registry m in
  let c =
    Ctmon.create ~registry:r ~labels:[ ("sigma", "2") ]
      ~totals:(Ctg_engine.Metrics.totals m) ()
  in
  Ctg_engine.Metrics.record m ~domain:0 ~samples:1008 ~batches:16 ~bits:100_800
    ~work:0 ~gates:0;
  Ctmon.record_chunk c ~batches:16 ~bits:100_800 ~samples:1008 ~deviations:1
    ~fallbacks:0;
  let lines = String.split_on_char '\n' (Registry.expose_text r) in
  let has line = Alcotest.(check bool) line true (List.mem line lines) in
  has "ct_bits_total{sigma=\"2\"} 100800";
  has "engine_bits_consumed_total{sigma=\"2\"} 100800";
  has "ct_samples_total{sigma=\"2\"} 1008";
  has "ct_batches_total{sigma=\"2\"} 16";
  has "# TYPE entropy_bits_per_sample gauge";
  has "entropy_bits_per_sample{sigma=\"2\"} 100";
  has "ct_violations_total{sigma=\"2\"} 1";
  Alcotest.(check (float 1e-9)) "entropy" 100.0
    (Ctmon.entropy_bits_per_sample c);
  Registry.reset r;
  Alcotest.(check (float 0.0)) "entropy after reset" 0.0
    (Ctmon.entropy_bits_per_sample c);
  Alcotest.check_raises "alias onto another counter"
    (Invalid_argument "Registry.alias_counter: ct_bits_total holds another counter")
    (fun () ->
      ignore
        (Ctmon.create ~registry:r ~labels:[ ("sigma", "2") ]
           ~totals:
             {
               (Ctg_engine.Metrics.totals m) with
               Ctmon.bits = Registry.counter r "other_total";
             }
           ()))

(* --------------------------------------------------------------------- *)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "histo",
        qcheck
          [
            test_histo_merge_commutative;
            test_histo_merge_associative;
            test_histo_merge_counts;
            test_histo_quantile_bound;
          ]
        @ [
            Alcotest.test_case "edge cases" `Quick test_histo_edge_cases;
            Alcotest.test_case "adversarial bucket boundaries" `Quick
              test_histo_adversarial_boundaries;
          ] );
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick test_registry_basics;
          Alcotest.test_case "label canonicalization" `Quick
            test_registry_label_canonicalization;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_registry_kind_mismatch;
          Alcotest.test_case "deterministic exposition" `Quick
            test_registry_exposition_deterministic;
          Alcotest.test_case "JSON exposition parses" `Quick
            test_registry_json_parses_back;
          Alcotest.test_case "reset generation" `Quick
            test_registry_reset_generation;
          Alcotest.test_case "reset is not torn" `Quick
            test_registry_reset_not_torn;
        ] );
      ( "engine-metrics",
        [
          Alcotest.test_case "accounting" `Quick test_engine_metrics_accounting;
          Alcotest.test_case "snapshot vs reset not torn" `Quick
            test_engine_metrics_snapshot_not_torn;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans and Chrome export" `Quick
            test_trace_spans_and_export;
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_is_free_of_effects;
          Alcotest.test_case "exception still records" `Quick
            test_trace_exception_still_records;
          Alcotest.test_case "flow events chain with one id" `Quick
            test_trace_flow_events;
          Alcotest.test_case "ring wrap-around stays whole" `Quick
            test_trace_ring_wraparound;
          Alcotest.test_case "gc capture per span" `Quick
            test_trace_gc_capture_args;
        ] );
      ( "prof",
        [
          Alcotest.test_case "report ranks labels by allocation" `Quick
            test_prof_report_ranking;
        ] );
      ( "promtext",
        [
          Alcotest.test_case "expose_text round-trips" `Quick
            test_promtext_roundtrip;
          Alcotest.test_case "rejects malformed text" `Quick
            test_promtext_rejects_garbage;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_jsonx_rejects_garbage;
        ] );
      ( "ctmon",
        [
          Alcotest.test_case "constant-time sampler is clean" `Quick
            test_ctmon_constant_time_clean;
          Alcotest.test_case "fires on a non-CT stub" `Quick
            test_ctmon_fires_on_non_ct_stub;
          Alcotest.test_case "declared fallback classified" `Quick
            test_ctmon_fallback_classification;
          Alcotest.test_case "first batch is a fallback" `Quick
            test_ctmon_first_batch_is_fallback;
          Alcotest.test_case "alternating fallback/normal" `Quick
            test_ctmon_alternating_fallback_normal;
          Alcotest.test_case "fallback never teaches the expectation" `Quick
            test_ctmon_fallback_only_then_deviating_normal;
          Alcotest.test_case "bulk chunk accounting" `Quick
            test_ctmon_record_chunk;
          Alcotest.test_case "shared totals are counted once" `Quick
            test_ctmon_shared_totals;
        ] );
    ]

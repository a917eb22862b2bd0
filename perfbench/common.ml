(* Shared plumbing for the workloads: arguments, timing, robust summaries,
   the host reference loop (host-normalised times and the drift marker),
   peak memory, layer self times from the trace ring, and the one-line
   JSON result the harness reads. *)

module Obs = Ctg_obs

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;  (** Where the traced run writes its trace file. *)
}

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let m name unit_ value = { name; value; unit_ }
let now () = Unix.gettimeofday ()
let info fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile; 0 on an empty array. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* One timed operation: units of work delivered, seconds taken, the
   host's slowdown while it ran (see [measure]), and whether its output
   passed the exact check. *)
type op = { units : float; secs : float; slowdown : float; ok : bool }

(* The latency limit of slo_frac, for every workload. *)
let slo_s = 0.025

(* Untimed work before each measured window, so lazy set-up, caches and
   the heap settle first. *)
let warmup_s = 1.0

(* A failed operation misses every latency limit. *)
let latency o = if o.ok then o.secs else infinity

(* ------------------------------------------------------------------ *)
(* Host reference                                                      *)
(* ------------------------------------------------------------------ *)

(* The host reference: a fixed loop sharing no code with the program
   under test.  An integer half (and, xor, not, shifts) and a float half
   (multiply-adds) each sweep a 256-element array, every index independent
   of the next, so both run at the core's throughput like the bitsliced
   sampler and Falcon's FFT do.  On a shared host that throughput moves
   with what other tenants run on the same physical cores: on a 2-vCPU
   Xeon VM, 16-signature batches took 17 to 29 ms for the same work, and
   the log of a batch's time and of the mean of the passes just before
   and after it correlated at 0.86.  A latency-bound loop (a chain of
   multiplies) barely moves, so it cannot stand in. *)
let ref_width = 256
let ref_rounds = 2_500

let reference_pass () =
  let w = Array.init ref_width (fun i -> i * 0x2545F4914F6CDD1D) in
  let a = Array.init ref_width (fun i -> float_of_int i *. 1e-3) in
  for r = 1 to ref_rounds do
    for i = 0 to ref_width - 4 do
      let x = w.(i) and y = w.(i + 1) and z = w.(i + 3) in
      w.(i) <- x land y lxor lnot z lxor (x lsr 3) lxor r
    done
  done;
  for r = 1 to ref_rounds do
    let c = float_of_int r *. 1e-6 in
    for i = 0 to ref_width - 4 do
      a.(i) <- (a.(i) *. 0.999) +. (a.(i + 1) *. a.(i + 3) *. 1e-3) +. c
    done
  done;
  (w.(0), a.(0))

(* Seconds of one reference pass on an uncontended core of that VM: the
   fixed scale of the host-normalised times. *)
let reference_nominal_s = 0.002

(* Seconds of one reference pass on the calling domain. *)
let reference_s () =
  let t0 = now () in
  ignore (Sys.opaque_identity (reference_pass ()) : int * float);
  now () -. t0

(* Millions of reference loop iterations per second, best of three passes:
   the host drift marker. *)
let reference_rate () =
  let best = ref infinity in
  for _ = 1 to 3 do
    best := Float.min !best (reference_s ())
  done;
  float_of_int (2 * ref_rounds * (ref_width - 3)) /. !best /. 1e6

(* Run [f pass], where [pass ()] runs a reference pass on the calling
   domain and on a partner domain at once and returns the mean of the two
   times: the slowdown of both cores that a two-domain pool runs on.  The
   partner is spawned once and sleeps on a condition between passes;
   spawning a domain for every pass halved the pool's speed. *)
let with_partner f =
  let m = Mutex.create () and c = Condition.create () in
  let pending = ref false and quit = ref false and theirs = ref 0.0 in
  let rec serve () =
    Mutex.lock m;
    while not (!pending || !quit) do
      Condition.wait c m
    done;
    let stop = !quit in
    Mutex.unlock m;
    if not stop then begin
      let t = reference_s () in
      Mutex.lock m;
      theirs := t;
      pending := false;
      Condition.broadcast c;
      Mutex.unlock m;
      serve ()
    end
  in
  let partner = Domain.spawn serve in
  let pass () =
    Mutex.lock m;
    pending := true;
    Condition.broadcast c;
    Mutex.unlock m;
    let mine = reference_s () in
    Mutex.lock m;
    while !pending do
      Condition.wait c m
    done;
    let t = !theirs in
    Mutex.unlock m;
    (mine +. t) /. 2.0
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock m;
      quit := true;
      Condition.broadcast c;
      Mutex.unlock m;
      Domain.join partner)
    (fun () -> f pass)

(* Call [step] until [seconds] have passed, with a [reference] pass (a
   function returning its seconds) before each call and after the last.
   Each call returns the checked operations it ran, given its slowdown:
   the mean of the two passes around it over [reference_nominal_s].  An
   operation's time divided by its slowdown is its host-normalised time.
   Returns the operations in order. *)
let measure ~reference ~seconds step =
  let ops = ref [] in
  let before = ref (reference ()) in
  let deadline = now () +. seconds in
  while now () < deadline do
    let run = step () in
    let after = reference () in
    let slowdown = (!before +. after) /. 2.0 /. reference_nominal_s in
    List.iter (fun o -> ops := o ~slowdown :: !ops) run;
    before := after
  done;
  List.rev !ops

(* ------------------------------------------------------------------ *)
(* Set-up, repeated                                                    *)
(* ------------------------------------------------------------------ *)

(* Run [f 0] .. [f (reps - 1)], timing each; keep the last value and hand
   the earlier ones to [dispose].  Returns the value and the median time.
   Workloads that generate keys derive a different fixed key from each
   index, so the median spans several keys' generation costs.  The times
   are not host-normalised: dividing them by reference passes taken
   around each repetition steadied sign-512's set-up but made
   fill-s215's (allocation-heavy compile) less steady. *)
let repeated_setup ~reps ~dispose f =
  let times = Array.make reps 0.0 in
  let last = ref None in
  for i = 0 to reps - 1 do
    (match !last with Some v -> dispose v | None -> ());
    let t0 = now () in
    let v = f i in
    times.(i) <- now () -. t0;
    last := Some v
  done;
  info "setup: %s s (median of %d)"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") times)))
    reps;
  match !last with
  | Some v -> (v, median times)
  | None -> invalid_arg "repeated_setup: reps must be >= 1"

(* ------------------------------------------------------------------ *)
(* Memory and GC                                                       *)
(* ------------------------------------------------------------------ *)

(* VmHWM: the process's peak resident set, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Minor-heap words allocated by the calling domain. *)
let minor_words () =
  let minor, _, _ = Gc.counters () in
  minor

(* Runtime_events pause accounting over a window; only the traced run
   starts the ring.  [Ctg_serve.Daemon] starts and stops it itself when
   its [rtev] flag is set, so [own] tells whether to stop it here. *)
let gc_window ~own f =
  let started = (not own) || Ctg_rtev.Rtev.start () in
  Ctg_rtev.Rtev.reset_stats ();
  let t0 = now () in
  let v = f () in
  ignore (Ctg_rtev.Rtev.poll () : int);
  let dt = now () -. t0 in
  let total = float_of_int (Ctg_rtev.Rtev.total_pause_ns ()) /. 1e6 in
  let maxp = float_of_int (Ctg_rtev.Rtev.max_pause_ns ()) /. 1e6 in
  if own && started then Ctg_rtev.Rtev.stop ();
  if not started then info "warning: Runtime_events unavailable; gc.* read 0";
  (v, [ m "gc.pause_ms_per_s" "ms/s" (ratio total dt); m "gc.max_pause_ms" "ms" maxp ])

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

let span name f = Obs.Trace.with_span name ~cat:"bench" f

(* Self time per span name: each complete span's duration minus the part
   covered by its direct children on the same domain.  Returns
   (name, count, total ns, self ns), largest self time first. *)
let self_times events =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.ph = Obs.Trace.Complete && e.dur_ns >= 0 then
        Hashtbl.replace by_tid e.tid
          (e :: Option.value ~default:[] (Hashtbl.find_opt by_tid e.tid)))
    events;
  let acc = Hashtbl.create 16 in
  let add name ~dur ~self =
    let c, d, s = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt acc name) in
    Hashtbl.replace acc name (c + 1, d + dur, s + self)
  in
  Hashtbl.iter
    (fun _ evs ->
      (* Parents first: earlier start, then longer duration. *)
      let evs =
        List.sort
          (fun (a : Obs.Trace.event) (b : Obs.Trace.event) ->
            match compare a.ts_ns b.ts_ns with
            | 0 -> compare b.dur_ns a.dur_ns
            | c -> c)
          evs
      in
      (* Stack of open spans with their accumulated child time. *)
      let stack = ref [] in
      let close_until ts =
        let rec go () =
          match !stack with
          | ((p : Obs.Trace.event), child) :: rest when p.ts_ns + p.dur_ns <= ts ->
            add p.name ~dur:p.dur_ns ~self:(p.dur_ns - !child);
            stack := rest;
            go ()
          | _ -> ()
        in
        go ()
      in
      List.iter
        (fun (e : Obs.Trace.event) ->
          close_until e.ts_ns;
          (match !stack with (_, child) :: _ -> child := !child + e.dur_ns | [] -> ());
          stack := (e, ref 0) :: !stack)
        evs;
      close_until max_int)
    by_tid;
  Hashtbl.fold (fun name (c, d, s) l -> (name, c, d, s) :: l) acc []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* Alternate [pairs] untraced and traced calls of [f] (which gets the
   traced flag), so the tracing overhead is read under the same host
   conditions.  Returns the untraced and the traced results, in order. *)
let alternate ~pairs f =
  Obs.Trace.reset ();
  let untraced = ref [] and traced = ref [] in
  for _ = 1 to pairs do
    untraced := f false :: !untraced;
    Obs.Trace.enable ~capacity:(1 lsl 17) ();
    traced := f true :: !traced;
    Obs.Trace.disable ()
  done;
  (List.rev !untraced, List.rev !traced)

(* Print the self-time table of the recorded spans and write the Chrome
   trace. *)
let finish_trace args =
  let events = Obs.Trace.events () in
  info "trace: %d events buffered, %d dropped" (List.length events)
    (Obs.Trace.dropped ());
  info "%-22s %8s %12s %12s" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun (name, c, d, s) ->
      info "%-22s %8d %12.3f %12.3f" name c (float_of_int d /. 1e6)
        (float_of_int s /. 1e6))
    (self_times events);
  let path =
    Filename.concat args.out_dir
      (Printf.sprintf "trace-%s-%d.json" args.workload args.seed)
  in
  (try
     Obs.Trace.write path;
     info "trace written to %s" path
   with Sys_error e -> info "warning: trace not written (%s)" e);
  Obs.Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

let json_string s = "\"" ^ String.escaped s ^ "\""

let print_result r =
  let metric x =
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string x.name)
      (if Float.is_finite x.value then x.value else 0.0)
      (json_string x.unit_)
  in
  List.iter
    (fun x -> info "  %-34s %16.6f %s" x.name x.value x.unit_)
    r.metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                *)
(* ------------------------------------------------------------------ *)

(* The end-to-end metrics every workload prints (BENCHMARK.json order).
   [attempted] and [failed] count every checked operation, warm-up
   included; [latencies] holds the seconds of each timed operation
   (infinity when it failed) and [latency_s] the workload's latency
   figure drawn from them. *)
let end_to_end ~setup_s ~attempted ~failed ~ops_per_s ~latency_s latencies =
  let within = List.length (List.filter (fun l -> l <= slo_s) latencies) in
  [
    m "setup_s" "s" setup_s;
    m "peak_rss_mb" "MiB" (peak_rss_mb ());
    m "ok_frac" "ratio" (ratio (float_of_int (attempted - failed)) (float_of_int attempted));
    m "ops_per_s" "1/s" ops_per_s;
    m "latency_ms" "ms" (latency_s *. 1e3);
    m "slo_frac" "ratio" (ratio (float_of_int within) (float_of_int (List.length latencies)));
  ]

let failures ops = List.length (List.filter (fun o -> not o.ok) ops)

(* [end_to_end] over checked warm-up operations and timed ones, for batch
   work, on host-normalised times.  latency_ms is the median time of one
   timed operation (a failed one counts as infinitely slow), and ops_per_s
   is one operation's work over that time.  Both come from the same
   median, so they always move together; and with every operation far
   below the 25 ms limit, slo_frac counts the same failures as ok_frac. *)
let batch_end_to_end ~setup_s ~warm ops =
  let norm = Array.of_list (List.map (fun o -> latency o /. o.slowdown) ops) in
  let raw = Array.of_list (List.map latency ops) in
  let t = median norm in
  let size = match ops with o :: _ -> o.units | [] -> 0.0 in
  info "operation time: raw median %.6g ms (p10 %.6g, p90 %.6g); host slowdown median %.3f; \
        host-normalised median %.6g ms"
    (median raw *. 1e3) (quantile raw 0.1 *. 1e3) (quantile raw 0.9 *. 1e3)
    (median (Array.of_list (List.map (fun o -> o.slowdown) ops)))
    (t *. 1e3);
  end_to_end ~setup_s
    ~attempted:(List.length warm + List.length ops)
    ~failed:(failures warm + failures ops)
    ~ops_per_s:(ratio size t) ~latency_s:t (Array.to_list norm)

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                    *)
(* ------------------------------------------------------------------ *)

(* Every per-layer metric, in BENCHMARK.json order.  A traced run prints
   all of them; a layer the workload never executes reads 0. *)
let per_layer_units =
  [
    ("prng.ns_per_word", "ns");
    ("prng.bits_per_sample", "bits");
    ("prng.blocks_per_sample", "blocks");
    ("core.batch_ns", "ns");
    ("core.ns_per_gate", "ns");
    ("core.alloc_words_per_sample", "words");
    ("core.fallback_lane_frac", "ratio");
    ("core.fallback_batch_frac", "ratio");
    ("engine.compile_s", "s");
    ("engine.chunk_ns_p50", "ns");
    ("engine.queue_wait_ns_p50", "ns");
    ("engine.domain_skew", "ratio");
    ("engine.ct_violations", "count");
    ("falcon.keygen_s", "s");
    ("falcon.hash_to_point_us", "us");
    ("falcon.ff_sampling_us", "us");
    ("falcon.basis_fft_us", "us");
    ("falcon.verify_after_sign_us", "us");
    ("falcon.base_sampler_us", "us");
    ("falcon.attempts_per_sig", "count");
    ("falcon.alloc_words_per_sig", "words");
    ("falcon.sign_many_2dom_ok_frac", "ratio");
    ("serve.queue_wait_ms_p50", "ms");
    ("serve.service_ms_p50", "ms");
    ("serve.batch_mean", "count");
    ("serve.shed", "count");
    ("net.overhead_ms_p50", "ms");
    ("client.sent", "count");
    ("client.succeeded", "count");
    ("client.failed", "count");
    ("client.late_ms_max", "ms");
    ("client.p50_ms", "ms");
    ("client.p99_ms", "ms");
    ("client.p99_samples", "count");
    ("gc.pause_ms_per_s", "ms/s");
    ("gc.max_pause_ms", "ms");
    ("host.spin_rate", "Miter/s");
    ("trace.overhead_frac", "ratio");
    ("layers.residual_frac", "ratio");
  ]

(* The traced result: [measured] values in catalogue order, 0 for the
   layers this workload does not run. *)
let per_layer measured =
  List.iter
    (fun x ->
      if not (List.mem_assoc x.name per_layer_units) then
        invalid_arg ("per_layer: unknown metric " ^ x.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x -> x
      | None -> m name unit_ 0.0)
    per_layer_units

(* Host marker around a measured phase: the reference loop's rate before
   and after, both printed, and their mean reported. *)
let with_host_marker f =
  let before = reference_rate () in
  let v = f () in
  let after = reference_rate () in
  info "host reference rate: %.1f before, %.1f after (Miter/s)" before after;
  (v, m "host.spin_rate" "Miter/s" ((before +. after) /. 2.0))

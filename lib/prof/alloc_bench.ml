(* Gated allocation baselines + profiling-overhead benchmark.

   Two committed numbers per (sigma, precision):

   - [alloc_words_per_sample]: words allocated by the single-domain batch
     fill loop, per signed sample.  Single-domain because [Gc.counters]
     is per-domain — fanning out to a pool would under-count by whatever
     the workforce domains allocated.
   - [alloc_words_per_signature]: words per [Falcon.Sign.sign] call on a
     small ring (sequential, same reasoning).

   Plus the acceptance gate: the fill loop timed with the full profiling
   arm enabled (tracing + per-span Gc capture + observer aggregation)
   must stay within [threshold_pct] of the plain loop, measured with the
   same paired-pass median-of-ratios estimator the obs-overhead gate
   uses ([Ctg_engine.Obs_bench.paired_ns] — its per-loop tracing toggle
   switches the whole profiling arm, since Gc capture rides on tracing
   being enabled). *)

module Obs = Ctg_obs
module Jsonx = Obs.Jsonx
module F = Ctg_falcon
module Engine = Ctg_engine

type entry = {
  sigma : string;
  precision : int;
  samples : int;  (** Samples per timing/alloc window. *)
  msgs : int;  (** Signatures in the per-signature measurement. *)
  alloc_words_per_sample : float;
  alloc_words_per_signature : float;
  plain_ns : float;  (** ns/sample, profiling off. *)
  prof_ns : float;  (** ns/sample, full profiling arm on. *)
  prof_overhead_pct : float;
}

let threshold_pct = 3.0

let default_set = [ ("1", 128); ("2", 128); ("6.15543", 128); ("215", 16) ]

let run_fill sampler out rng =
  Ctgauss.Sampler.fill sampler rng out ~pos:0 ~len:(Array.length out)

(* Words allocated on this domain by [f]: minor + major direct, minus the
   promoted words that both counters saw.  [Gc.full_major] first so
   collector debt inherited from the caller doesn't promote mid-window. *)
let alloc_words f =
  Gc.full_major ();
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0) +. (major1 -. major0) -. (promoted1 -. promoted0)

let words_per_signature ~msgs =
  let params = F.Params.custom ~n:64 in
  let kp =
    F.Keygen.generate params
      (Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed "alloc-bench-key"))
  in
  let master =
    Engine.Registry.lookup Engine.Registry.global ~sigma:"2" ~precision:16
      ~tail_cut:13 ()
  in
  let sign lane =
    let rng =
      Engine.Stream_fork.bitstream ~health:false ~seed:"alloc-bench-sign" ~lane ()
    in
    let base =
      F.Base_sampler.of_instance
        (Ctg_samplers.Sampler_sig.of_bitsliced (Ctgauss.Sampler.clone master))
    in
    ignore (F.Sign.sign ~check:false kp base rng ~msg:(Bytes.of_string "alloc"))
  in
  (* Warm once (first call pays one-time setup allocations). *)
  sign 1000;
  let w =
    alloc_words (fun () ->
        for lane = 0 to msgs - 1 do
          sign lane
        done)
  in
  w /. float_of_int msgs

let measure ?(samples = 63 * 1000) ?(msgs = 16) ?(rounds = 5) ?(min_time = 0.4)
    ~sigma ~precision ~tail_cut () =
  let master =
    Engine.Registry.lookup Engine.Registry.global ~sigma ~precision ~tail_cut ()
  in
  let sampler = Ctgauss.Sampler.clone master in
  let out = Array.make samples 0 in
  let seed = "alloc-bench-" ^ sigma in
  let lane_rng lane =
    Engine.Stream_fork.bitstream ~health:false ~seed ~lane ()
  in
  (* Warm the code path before measuring. *)
  run_fill sampler out (lane_rng 1000);
  let wps =
    alloc_words (fun () -> run_fill sampler out (lane_rng 1001))
    /. float_of_int samples
  in
  let wsig = words_per_signature ~msgs in
  (* Overhead gate: plain vs full-profiling-arm fill.  Prof is enabled
     against a scratch registry, then tracing is lowered so the [false]
     arm runs the untouched fast path — paired_ns raises it per-pass for
     the [true] arm, which (with gc capture armed) switches the whole
     profiling chain. *)
  let scratch = Obs.Registry.create () in
  Prof.enable ~registry:scratch ();
  Prof.reset ();
  let was_tracing = Obs.Trace.is_enabled () in
  Obs.Trace.disable ();
  let fill ~lane = run_fill sampler out (lane_rng lane) in
  let one scale =
    Engine.Obs_bench.paired_ns ~rounds
      ~min_time:(min_time *. float_of_int scale)
      ~samples
      [| (false, fill); (true, fill) |]
  in
  let overhead_of (t : float array) = 100.0 *. (t.(1) -. t.(0)) /. t.(0) in
  (* Same upper-bound logic as the obs gate: noise is additive, so keep
     the best of repeated measurements, growing the budget only while the
     estimate is not comfortably inside the threshold. *)
  let rec go attempt best =
    if overhead_of best < 0.75 *. threshold_pct || attempt > 4 then best
    else begin
      let cur = one attempt in
      go (attempt + 1) (if overhead_of cur <= overhead_of best then cur else best)
    end
  in
  let timings = go 2 (one 1) in
  Prof.disable ();
  if was_tracing then Obs.Trace.enable () else Obs.Trace.disable ();
  let plain = timings.(0) and prof = timings.(1) in
  {
    sigma;
    precision;
    samples;
    msgs;
    alloc_words_per_sample = wps;
    alloc_words_per_signature = wsig;
    plain_ns = plain;
    prof_ns = prof;
    prof_overhead_pct = 100.0 *. (prof -. plain) /. plain;
  }

let run ?samples ?msgs ?rounds ?min_time ?(set = default_set) () =
  List.map
    (fun (sigma, precision) ->
      measure ?samples ?msgs ?rounds ?min_time ~sigma ~precision ~tail_cut:13 ())
    set

let ok entries =
  List.for_all
    (fun e ->
      e.prof_overhead_pct < threshold_pct
      && e.alloc_words_per_sample >= 0.0
      && e.alloc_words_per_signature >= 0.0)
    entries

let entry_to_json e =
  Jsonx.Obj
    [
      ("sigma", Jsonx.Str e.sigma);
      ("precision", Jsonx.Num (float_of_int e.precision));
      ("samples", Jsonx.Num (float_of_int e.samples));
      ("msgs", Jsonx.Num (float_of_int e.msgs));
      ("alloc_words_per_sample", Jsonx.Num e.alloc_words_per_sample);
      ("alloc_words_per_signature", Jsonx.Num e.alloc_words_per_signature);
      ("plain_ns_per_sample", Jsonx.Num e.plain_ns);
      ("prof_ns_per_sample", Jsonx.Num e.prof_ns);
      ("prof_overhead_pct", Jsonx.Num e.prof_overhead_pct);
    ]

let to_json entries =
  Jsonx.Obj
    [
      ("benchmark", Jsonx.Str "alloc-profile");
      ("threshold_pct", Jsonx.Num threshold_pct);
      ("ok", Jsonx.Bool (ok entries));
      ("entries", Jsonx.List (List.map entry_to_json entries));
    ]

let save path entries =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Jsonx.pretty (to_json entries));
      output_char oc '\n')

let pp_entry fmt e =
  Format.fprintf fmt
    "sigma %-8s n=%-3d %7.1f words/sample %9.1f words/sig: plain %6.1f prof \
     %6.1f ns/sample (+%.2f%%)"
    e.sigma e.precision e.alloc_words_per_sample e.alloc_words_per_signature
    e.plain_ns e.prof_ns e.prof_overhead_pct

open Ctg_sync.Shim

type totals = {
  batches : Registry.counter;
  bits : Registry.counter;
  samples : Registry.counter;
}

type t = {
  expected : int Atomic.t; (* bits per batch; 0 = not learned yet *)
  violations : Registry.counter;
  fallbacks : Registry.counter;
  totals : totals;
  owns_totals : bool; (* false: the owner of [totals] adds to them *)
}

let entropy_of totals =
  let samples = Registry.value totals.samples in
  if samples = 0 then 0.0
  else float_of_int (Registry.value totals.bits) /. float_of_int samples

let create ?(registry = Registry.default) ?(labels = []) ?totals () =
  let owns_totals = Option.is_none totals in
  let totals =
    match totals with
    | None ->
      {
        batches = Registry.counter registry ~labels "ct_batches_total";
        bits = Registry.counter registry ~labels "ct_bits_total";
        samples = Registry.counter registry ~labels "ct_samples_total";
      }
    | Some tot ->
      Registry.alias_counter registry ~labels "ct_batches_total" tot.batches;
      Registry.alias_counter registry ~labels "ct_bits_total" tot.bits;
      Registry.alias_counter registry ~labels "ct_samples_total" tot.samples;
      tot
  in
  Registry.derived_gauge registry ~labels "entropy_bits_per_sample" (fun () ->
      entropy_of totals);
  {
    expected = Atomic.make 0;
    violations = Registry.counter registry ~labels "ct_violations_total";
    fallbacks = Registry.counter registry ~labels "ct_fallback_batches_total";
    totals;
    owns_totals;
  }

let learn t bits =
  let current = Atomic.get t.expected in
  if current <> 0 then current
  else if Atomic.compare_and_set t.expected 0 bits then bits
  else Atomic.get t.expected

let expected_bits t = Atomic.get t.expected

let record_chunk t ~batches ~bits ~samples ~deviations ~fallbacks =
  if t.owns_totals then begin
    Registry.add t.totals.batches batches;
    Registry.add t.totals.bits bits;
    Registry.add t.totals.samples samples
  end;
  if deviations > 0 then Registry.add t.violations deviations;
  if fallbacks > 0 then Registry.add t.fallbacks fallbacks

let observe_batch t ~bits ~samples ?(fallback = false) () =
  (* A declared-fallback batch draws a data-dependent number of bits, so it
     must neither teach the expectation nor count as a violation. *)
  if fallback then record_chunk t ~batches:1 ~bits ~samples ~deviations:0 ~fallbacks:1
  else
    let expected = learn t bits in
    record_chunk t ~batches:1 ~bits ~samples
      ~deviations:(if bits <> expected then 1 else 0)
      ~fallbacks:0

let violations t = Registry.value t.violations
let fallback_batches t = Registry.value t.fallbacks

let entropy_bits_per_sample t = entropy_of t.totals

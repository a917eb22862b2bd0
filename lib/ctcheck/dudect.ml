type clazz = Fix | Random

type config = {
  measurements : int;
  threshold : float;
}

let default_config =
  { measurements = 50_000; threshold = 4.5 }

type report = {
  t_statistic : float;
  leaky : bool;
  samples_per_class : int;
  mean_fix : float;
  mean_random : float;
}

(* The class sequence comes from a fixed-seed Splitmix stream and the
   moments are Welford-updated in feed order, so a whole run is a pure
   function of the measure: two runs of the same deterministic measure
   produce bit-identical reports — the determinism test_ctcheck checks.
   No cropping is applied: op counts have no GC/interrupt outliers to
   tame. *)
let test_ops ?(config = default_config) f =
  let rng = Ctg_prng.Splitmix64.create 0x0DDC0FFEEL in
  let fix = Ctg_stats.Moments.create () in
  let rnd = Ctg_stats.Moments.create () in
  for _ = 1 to 2 * config.measurements do
    if Ctg_prng.Splitmix64.next_int rng 2 = 0 then
      Ctg_stats.Moments.add fix (float_of_int (f Fix))
    else Ctg_stats.Moments.add rnd (float_of_int (f Random))
  done;
  let t = Ctg_stats.Welch.t_statistic fix rnd in
  {
    t_statistic = t;
    leaky = abs_float t > config.threshold;
    samples_per_class =
      min (Ctg_stats.Moments.count fix) (Ctg_stats.Moments.count rnd);
    mean_fix = Ctg_stats.Moments.mean fix;
    mean_random = Ctg_stats.Moments.mean rnd;
  }

let pp_report fmt r =
  Format.fprintf fmt "t=%+.2f %s (n=%d/class, mean fix=%.2f random=%.2f)"
    r.t_statistic
    (if r.leaky then "LEAKY" else "no leakage detected")
    r.samples_per_class r.mean_fix r.mean_random

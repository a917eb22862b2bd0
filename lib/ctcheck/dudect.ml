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

let default_seed = 0x0DDC0FFEEL

(* ---------------------------------------------------------------- *)
(* Incremental accumulator (Ops-counter mode)                        *)
(* ---------------------------------------------------------------- *)

(* The class sequence comes from the accumulator's own seeded Splitmix
   stream and the moments are Welford-updated in feed order, so a whole
   run is a pure function of (seed, measure): two runs with the same seed
   produce bit-identical reports — the determinism test_ctcheck checks. *)
type acc = {
  a_config : config;
  a_rng : Ctg_prng.Splitmix64.t;
  a_fix : Ctg_stats.Moments.t;
  a_rnd : Ctg_stats.Moments.t;
}

let acc ?(config = default_config) ?(seed = default_seed) () =
  {
    a_config = config;
    a_rng = Ctg_prng.Splitmix64.create seed;
    a_fix = Ctg_stats.Moments.create ();
    a_rnd = Ctg_stats.Moments.create ();
  }

let acc_next_class a =
  if Ctg_prng.Splitmix64.next_int a.a_rng 2 = 0 then Fix else Random

let acc_add a clazz v =
  match clazz with
  | Fix -> Ctg_stats.Moments.add a.a_fix v
  | Random -> Ctg_stats.Moments.add a.a_rnd v

let acc_step a measure =
  let clazz = acc_next_class a in
  acc_add a clazz (measure clazz)

let acc_count a =
  Ctg_stats.Moments.count a.a_fix + Ctg_stats.Moments.count a.a_rnd

let acc_report a =
  let t = Ctg_stats.Welch.t_statistic a.a_fix a.a_rnd in
  {
    t_statistic = t;
    leaky = abs_float t > a.a_config.threshold;
    samples_per_class =
      min
        (Ctg_stats.Moments.count a.a_fix)
        (Ctg_stats.Moments.count a.a_rnd);
    mean_fix = Ctg_stats.Moments.mean a.a_fix;
    mean_random = Ctg_stats.Moments.mean a.a_rnd;
  }

(* ---------------------------------------------------------------- *)
(* One-shot runs                                                     *)
(* ---------------------------------------------------------------- *)

let test_ops ?(config = default_config) f =
  let a = acc ~config () in
  for _ = 1 to 2 * config.measurements do
    acc_step a (fun c -> float_of_int (f c))
  done;
  acc_report a

let pp_report fmt r =
  Format.fprintf fmt "t=%+.2f %s (n=%d/class, mean fix=%.2f random=%.2f)"
    r.t_statistic
    (if r.leaky then "LEAKY" else "no leakage detected")
    r.samples_per_class r.mean_fix r.mean_random

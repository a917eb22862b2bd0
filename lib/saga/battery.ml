module Sig = Ctg_samplers.Sampler_sig
module Bs = Ctg_prng.Bitstream
module Jsonx = Ctg_obs.Jsonx
module Chi_square = Ctg_stats.Chi_square

type config = {
  samples : int;
  z_crit : float;
  chi_alpha : float;
  tail_target : float;
  lags : int list;
}

let default_config =
  {
    samples = 200_000;
    z_crit = 3.5;
    chi_alpha = 1e-3;
    tail_target = 0.02;
    lags = [ 1; 2; 3; 4; 8; 63 ];
  }

type check = {
  family : string;
  name : string;
  value : float;
  bound : float;
  pass : bool;
  detail : string;
}

type verdict = {
  backend : string;
  sigma : string;
  precision : int;
  n_samples : int;
  checks : check list;
  pass : bool;
}

(* The target law and its signed moments, computed once per matrix.  The
   law is the termination-conditioned model shared with the online
   monitor (Ctg_assure.Drift.expected_model): magnitudes follow
   p_v / (1 - residual) with a zero-mass overflow bin; the signed law is
   its symmetric unfolding, so odd moments vanish and even moment 2k is
   sum_v q_v v^2k. *)
type model = {
  matrix : Ctg_kyao.Matrix.t;
  conditional : float array;  (* support+2 bins, trailing overflow zero *)
  residual : float;
  m2 : float;
  m4 : float;
  m6 : float;
  m8 : float;
}

let model matrix =
  let conditional, residual = Ctg_assure.Drift.expected_model ~matrix in
  let support = matrix.Ctg_kyao.Matrix.support in
  let moment k =
    let acc = ref 0.0 in
    for v = 0 to support do
      acc := !acc +. (conditional.(v) *. (float_of_int v ** float_of_int k))
    done;
    !acc
  in
  {
    matrix;
    conditional;
    residual;
    m2 = moment 2;
    m4 = moment 4;
    m6 = moment 6;
    m8 = moment 8;
  }

let matrix m = m.matrix

(* Smallest magnitude whose exact two-sided tail mass is at or below the
   target (the binomial tail-mass checkpoint).  Magnitude 0 is excluded:
   a cutoff of 0 would make the check vacuous. *)
let tail_cutoff m ~target =
  let support = m.matrix.Ctg_kyao.Matrix.support in
  let cutoff = ref (support + 1) and tail = ref 0.0 in
  (let running = ref 0.0 in
   for v = support downto 1 do
     running := !running +. m.conditional.(v);
     if !running <= target then begin
       cutoff := v;
       tail := !running
     end
   done);
  (!cutoff, !tail)

let check ~family ~name ~value ~bound ~pass detail =
  { family; name; value; bound; pass; detail }

(* A two-sided z check: |value - target| against z_crit standard errors. *)
let z_check ~family ~name ~z_crit ~target ~se value =
  let z = if se > 0.0 then abs_float (value -. target) /. se else 0.0 in
  check ~family ~name ~value:z ~bound:z_crit ~pass:(z <= z_crit)
    (Printf.sprintf "observed %.6g vs exact %.6g (se %.3g)" value target se)

let evaluate ?(config = default_config) m ~backend ~samples ~len =
  if len < 1000 then invalid_arg "Battery.evaluate: need >= 1000 samples";
  let support = m.matrix.Ctg_kyao.Matrix.support in
  let sigma = m.matrix.Ctg_kyao.Matrix.sigma in
  let precision = m.matrix.Ctg_kyao.Matrix.precision in
  let counts = Array.make (support + 1) 0 in
  let overflow = ref 0 in
  let s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 and s4 = ref 0.0 in
  for i = 0 to len - 1 do
    let x = float_of_int samples.(i) in
    let x2 = x *. x in
    s1 := !s1 +. x;
    s2 := !s2 +. x2;
    s3 := !s3 +. (x2 *. x);
    s4 := !s4 +. (x2 *. x2);
    let v = abs samples.(i) in
    if v > support then incr overflow else counts.(v) <- counts.(v) + 1
  done;
  let fn = float_of_int len in
  let mean = !s1 /. fn in
  (* Central moments of the sample. *)
  let mc2 = (!s2 /. fn) -. (mean *. mean) in
  let mc3 =
    (!s3 /. fn) -. (3.0 *. mean *. (!s2 /. fn)) +. (2.0 *. (mean ** 3.0))
  in
  let mc4 =
    (!s4 /. fn)
    -. (4.0 *. mean *. (!s3 /. fn))
    +. (6.0 *. mean *. mean *. (!s2 /. fn))
    -. (3.0 *. (mean ** 4.0))
  in
  let zc = config.z_crit in
  (* Moment checks against the exact law, with standard errors from the
     exact higher moments (not the normal approximation: at sigma 1 the
     law is far from normal and sqrt(6/n)-style bounds would be
     miscalibrated).  For a symmetric law:
       var(mean)      = m2 / n
       var(variance)  = (m4 - m2^2) / n
       var(skewness)  = (m6 - 6 m2 m4 + 9 m2^3) / (n m2^3)
       var(kurtosis)  = (m8 - m4^2 + 4 k^2 (m4 - m2^2)
                         - 4 k (m6 - m2 m4)) / (n m2^4),  k = m4 / m2^2
     which recover the classic sqrt(6/n) and sqrt(24/n) when the law is
     normal. *)
  let c_mean =
    z_check ~family:"moments" ~name:"mean" ~z_crit:zc ~target:0.0
      ~se:(sqrt (m.m2 /. fn))
      mean
  in
  let c_var =
    z_check ~family:"moments" ~name:"variance" ~z_crit:zc ~target:m.m2
      ~se:(sqrt ((m.m4 -. (m.m2 *. m.m2)) /. fn))
      mc2
  in
  let g1 = mc3 /. (mc2 ** 1.5) in
  let se_g1 =
    sqrt
      (Float.max 0.0
         ((m.m6 -. (6.0 *. m.m2 *. m.m4) +. (9.0 *. (m.m2 ** 3.0)))
         /. (fn *. (m.m2 ** 3.0))))
  in
  let c_skew =
    z_check ~family:"moments" ~name:"skewness" ~z_crit:zc ~target:0.0 ~se:se_g1
      g1
  in
  let g2 = (mc4 /. (mc2 *. mc2)) -. 3.0 in
  let gamma2 = (m.m4 /. (m.m2 *. m.m2)) -. 3.0 in
  let k = m.m4 /. (m.m2 *. m.m2) in
  let se_g2 =
    sqrt
      (Float.max 0.0
         ((m.m8 -. (m.m4 *. m.m4)
          +. (4.0 *. k *. k *. (m.m4 -. (m.m2 *. m.m2)))
          -. (4.0 *. k *. (m.m6 -. (m.m2 *. m.m4))))
         /. (fn *. (m.m2 ** 4.0))))
  in
  let c_kurt =
    z_check ~family:"moments" ~name:"excess-kurtosis" ~z_crit:zc ~target:gamma2
      ~se:se_g2 g2
  in
  (* Chi-square GOF against the conditioned law, overflow bin included
     with zero expected mass — same statistic as one Drift window. *)
  let observed = Array.append counts [| !overflow |] in
  let expected = Array.map (fun p -> p *. fn) m.conditional in
  let r = Chi_square.test ~observed ~expected in
  let c_chi =
    check ~family:"chi-square" ~name:"gof" ~value:r.Chi_square.p_value
      ~bound:config.chi_alpha
      ~pass:(r.Chi_square.p_value >= config.chi_alpha)
      (Printf.sprintf "chi2=%.2f dof=%d" r.Chi_square.statistic
         r.Chi_square.dof)
  in
  (* Tails: the conditioned law has zero mass beyond the support, so any
     overflow is a hard failure; inside the support, the mass at or above
     the exact-quantile cutoff is a binomial proportion check. *)
  let c_support =
    check ~family:"tails" ~name:"support" ~value:(float_of_int !overflow)
      ~bound:0.0 ~pass:(!overflow = 0)
      (Printf.sprintf "%d sample(s) beyond support %d" !overflow support)
  in
  let cutoff, p_tail = tail_cutoff m ~target:config.tail_target in
  let tail_obs = ref !overflow in
  for v = cutoff to support do
    tail_obs := !tail_obs + counts.(v)
  done;
  let c_tail =
    if p_tail <= 0.0 then
      check ~family:"tails" ~name:"tail-mass" ~value:0.0 ~bound:zc ~pass:true
        "no nonzero-mass tail cutoff below the support"
    else
      z_check ~family:"tails" ~name:"tail-mass" ~z_crit:zc ~target:p_tail
        ~se:(sqrt (p_tail *. (1.0 -. p_tail) /. fn))
        (float_of_int !tail_obs /. fn)
  in
  (* Independence: lag autocorrelation of the signed sequence.  Under
     i.i.d. sampling each r_k is asymptotically N(0, 1/n); lag 63 covers
     the bitsliced batch width.  Reported as the worst lag. *)
  let worst_lag = ref 0 and worst_z = ref 0.0 in
  List.iter
    (fun lag ->
      if lag >= 1 && lag < len / 2 then begin
        let acc = ref 0.0 in
        for i = 0 to len - 1 - lag do
          acc := !acc +. (float_of_int samples.(i) *. float_of_int samples.(i + lag))
        done;
        let nl = float_of_int (len - lag) in
        let r_k = ((!acc /. nl) -. (mean *. mean)) /. mc2 in
        let z = abs_float r_k *. sqrt nl in
        if z > !worst_z then begin
          worst_z := z;
          worst_lag := lag
        end
      end)
    config.lags;
  let c_auto =
    check ~family:"autocorrelation" ~name:"max-lag" ~value:!worst_z ~bound:zc
      ~pass:(!worst_z <= zc)
      (Printf.sprintf "worst lag %d of %s" !worst_lag
         (String.concat "," (List.map string_of_int config.lags)))
  in
  let checks =
    [ c_mean; c_var; c_skew; c_kurt; c_chi; c_support; c_tail; c_auto ]
  in
  {
    backend;
    sigma;
    precision;
    n_samples = len;
    checks;
    pass = List.for_all (fun (c : check) -> c.pass) checks;
  }

let run ?(config = default_config) ?bias ~seed m inst =
  let sigma = m.matrix.Ctg_kyao.Matrix.sigma in
  let rng =
    Bs.of_chacha
      (Ctg_prng.Chacha20.of_seed
         (Printf.sprintf "saga-%Lx-%s-%s" seed sigma inst.Sig.name))
  in
  let corrupt = match bias with Some f -> f | None -> Fun.id in
  let samples =
    Array.init config.samples (fun _ -> corrupt (Sig.sample_signed inst rng))
  in
  evaluate ~config m ~backend:inst.Sig.name ~samples ~len:config.samples

let failed_families v =
  List.sort_uniq compare
    (List.filter_map
       (fun (c : check) -> if c.pass then None else Some c.family)
       v.checks)

let check_json c =
  Jsonx.Obj
    [
      ("family", Str c.family);
      ("name", Str c.name);
      ("value", Num c.value);
      ("bound", Num c.bound);
      ("pass", Bool c.pass);
      ("detail", Str c.detail);
    ]

let verdict_json v =
  Jsonx.Obj
    [
      ("backend", Str v.backend);
      ("sigma", Str v.sigma);
      ("precision", Num (float_of_int v.precision));
      ("samples", Num (float_of_int v.n_samples));
      ("pass", Bool v.pass);
      ("checks", List (List.map check_json v.checks));
    ]

let pp_verdict fmt v =
  Format.fprintf fmt "%-14s sigma=%-8s prec=%-3d n=%-7d %s" v.backend v.sigma
    v.precision v.n_samples
    (if v.pass then "PASS"
     else
       Printf.sprintf "FAIL [%s]" (String.concat "," (failed_families v)))

module Registry = Ctg_obs.Registry
module Distance = Ctg_stats.Distance
module Chi_square = Ctg_stats.Chi_square

type config = {
  window : int;
  alpha : float;
  renyi_alpha : float;
  keep_results : int;
}

let default_config =
  { window = 100_000; alpha = 0.01; renyi_alpha = 2.0; keep_results = 32 }

type window_result = {
  index : int;
  n : int;
  overflow : int;
  statistic : float;
  dof : int;
  p_value : float;
  alpha_k : float;
  alarm : bool;
  max_log : float;
  renyi : float;
}

(* The termination-conditioned sampler law, shared with the offline
   acceptance battery (Ctg_saga): the walk restarts on the residual path,
   so magnitudes follow p_v / (1 - residual) and the overflow bin carries
   zero expected mass. *)
let expected_model ~matrix =
  let exact = Distance.exact_probabilities matrix in
  let residual = Float.max 0.0 (1.0 -. Array.fold_left ( +. ) 0.0 exact) in
  let mass = 1.0 -. residual in
  let conditional =
    Array.append (Array.map (fun p -> p /. mass) exact) [| 0.0 |]
  in
  (conditional, residual)

type t = {
  config : config;
  exact : float array;  (* p_v over 0..support; sums to slightly < 1 *)
  expected_freq : float array;
      (* The sampler's actual per-magnitude law: the walk restarts on the
         residual path (Column_sampler.sample_magnitude, and the compiled
         circuit's invalid-lane resample), so magnitudes follow the
         conditional p_v / (1 - residual) and the overflow bin carries no
         mass at all.  Its entry here is 0; observed overflow then folds
         into the last chi-square group with zero expected mass, inflating
         the statistic — which is the alarm we want for impossible
         magnitudes. *)
  residual : float;  (* tail + rounding mass beyond the support *)
  observed : int array; (* the window's counts, refilled per evaluation *)
  expected : float array; (* [expected_freq] times the window size *)
  mutable plan : (int * Chi_square.plan) option;
      (* chi-square grouping for a window of this many samples, rebuilt
         only when the size changes (windows close on chunk boundaries,
         so their sizes vary by up to one chunk) *)
  mutex : Mutex.t;
  window : Sketch.t;
  cumulative : Sketch.t;
  mutable windows : int;
  mutable alarm_count : int;
  mutable first_alarm : window_result option;
  mutable results : window_result list;  (* newest first, bounded *)
  g_chi2 : Registry.gauge;
  g_p : Registry.gauge;
  g_max_log : Registry.gauge;
  g_renyi : Registry.gauge;
  c_windows : Registry.counter;
  c_alarms : Registry.counter;
  c_samples : Registry.counter;
}

let create ?(config = default_config) ?(registry = Registry.default)
    ?(labels = []) ~matrix () =
  if config.window < 100 then
    invalid_arg "Drift.create: window must be >= 100";
  if not (config.alpha > 0.0 && config.alpha < 1.0) then
    invalid_arg "Drift.create: alpha must be in (0,1)";
  if config.renyi_alpha <= 1.0 then
    invalid_arg "Drift.create: renyi_alpha must be > 1";
  let exact = Distance.exact_probabilities matrix in
  let support = matrix.Ctg_kyao.Matrix.support in
  let expected_freq, residual = expected_model ~matrix in
  {
    config;
    exact;
    expected_freq;
    residual;
    observed = Array.make (support + 2) 0;
    expected = Array.make (support + 2) 0.0;
    plan = None;
    mutex = Mutex.create ();
    window = Sketch.create ~support;
    cumulative = Sketch.create ~support;
    windows = 0;
    alarm_count = 0;
    first_alarm = None;
    results = [];
    g_chi2 = Registry.gauge registry ~labels "assure_drift_chi2";
    g_p = Registry.gauge registry ~labels "assure_drift_p_value";
    g_max_log = Registry.gauge registry ~labels "assure_drift_max_log";
    g_renyi = Registry.gauge registry ~labels "assure_drift_renyi";
    c_windows = Registry.counter registry ~labels "assure_drift_windows_total";
    c_alarms = Registry.counter registry ~labels "assure_drift_alarms_total";
    c_samples = Registry.counter registry ~labels "assure_drift_samples_total";
  }

(* Spend alpha over the unbounded window sequence: window k gets
   alpha/(k(k+1)), and sum_{k>=1} 1/(k(k+1)) = 1, so the total false-alarm
   probability over an arbitrarily long soak stays below [alpha] — the
   "no false alarms in a week-long soak" requirement, by construction
   rather than by tuning. *)
let alpha_at ~alpha k = alpha /. (float_of_int k *. float_of_int (k + 1))

(* Max-log and Rényi drift on the window, restricted to the magnitudes
   observed in it: unseen tail magnitudes would contribute log 0 = -inf
   noise, while real extra mass (overflow or impossible magnitudes) is the
   chi-square's job via the zero-expectation overflow bin.

   Both are taken through the ratio r = e/q of empirical to model
   frequency: max |log e - log q| is the larger of log (max r) and
   -log (min r), and e^a q^(1-a) = e r^(a-1), which is e r at the default
   order 2.  That is two logs per window and no per-bin log or power:
   at σ=215 (~700 occupied bins) those cost ~50 µs a window. *)
let divergences t ~n =
  let q = t.expected_freq in
  let r_max = ref 0.0 and r_min = ref infinity in
  let renyi_sum = ref 0.0 and renyi_mass = ref false in
  let a = t.config.renyi_alpha in
  for i = 0 to Array.length t.exact - 1 do
    let c = t.observed.(i) in
    if c > 0 && q.(i) > 0.0 then begin
      let e = float_of_int c /. n in
      let r = e /. q.(i) in
      if r > !r_max then r_max := r;
      if r < !r_min then r_min := r;
      renyi_sum := !renyi_sum +. (e *. if a = 2.0 then r else r ** (a -. 1.0));
      renyi_mass := true
    end
  done;
  if !renyi_mass then
    ( Float.max (log !r_max) (-.log !r_min),
      Float.max 0.0 (log !renyi_sum /. (a -. 1.0)) )
  else (0.0, 0.0)

(* Caller holds the mutex.  Allocates no bin-sized array: at σ=215 the
   window has ~2.8k bins, and fresh arrays of that size go to the major
   heap at several µs each. *)
let evaluate_window t =
  let n = Sketch.total t.window in
  let fn = float_of_int n in
  let plan =
    match t.plan with
    | Some (n', p) when n' = n -> p
    | _ ->
      for i = 0 to Array.length t.expected - 1 do
        t.expected.(i) <- t.expected_freq.(i) *. fn
      done;
      let p = Chi_square.plan ~expected:t.expected in
      t.plan <- Some (n, p);
      p
  in
  Sketch.observed_into t.window t.observed;
  let r = Chi_square.test_planned plan ~observed:t.observed in
  t.windows <- t.windows + 1;
  let alpha_k = alpha_at ~alpha:t.config.alpha t.windows in
  let alarm = r.Chi_square.p_value < alpha_k in
  let max_log, renyi = divergences t ~n:fn in
  let result =
    {
      index = t.windows;
      n;
      overflow = t.observed.(Array.length t.observed - 1);
      statistic = r.Chi_square.statistic;
      dof = r.Chi_square.dof;
      p_value = r.Chi_square.p_value;
      alpha_k;
      alarm;
      max_log;
      renyi;
    }
  in
  if alarm then begin
    t.alarm_count <- t.alarm_count + 1;
    if t.first_alarm = None then t.first_alarm <- Some result;
    Registry.incr t.c_alarms
  end;
  Registry.incr t.c_windows;
  Registry.set_gauge t.g_chi2 result.statistic;
  Registry.set_gauge t.g_p result.p_value;
  Registry.set_gauge t.g_max_log result.max_log;
  Registry.set_gauge t.g_renyi result.renyi;
  t.results <-
    result
    :: (if List.length t.results >= t.config.keep_results then
          List.filteri (fun i _ -> i < t.config.keep_results - 1) t.results
        else t.results);
  Sketch.absorb t.cumulative t.window;
  Sketch.reset t.window;
  result

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The always-on path: one sketch fold per sample; the lifetime sketch is
   only touched at window boundaries (absorb-then-reset in
   [evaluate_window]), keeping the per-sample cost inside the <3% budget
   that BENCH_assure.json gates. *)
let observe_sub t samples ~pos ~len =
  (* [locked] without its per-call closure and [Fun.protect] frame. *)
  Mutex.lock t.mutex;
  match
    Sketch.add_sub t.window samples ~pos ~len;
    Registry.add t.c_samples len;
    while Sketch.total t.window >= t.config.window do
      ignore (evaluate_window t)
    done
  with
  | () -> Mutex.unlock t.mutex
  | exception e ->
    Mutex.unlock t.mutex;
    raise e

let observe t samples = observe_sub t samples ~pos:0 ~len:(Array.length samples)

let flush t =
  locked t (fun () ->
      if Sketch.total t.window = 0 then None else Some (evaluate_window t))

let windows t = locked t (fun () -> t.windows)
let alarms t = locked t (fun () -> t.alarm_count)
let samples t =
  locked t (fun () -> Sketch.total t.cumulative + Sketch.total t.window)

let cumulative t = locked t (fun () -> Sketch.merge t.cumulative t.window)
let last t = locked t (fun () -> match t.results with [] -> None | r :: _ -> Some r)
let first_alarm t = locked t (fun () -> t.first_alarm)
let results t = locked t (fun () -> List.rev t.results)
let exact t = Array.copy t.exact

let result_json (r : window_result) =
  Ctg_obs.Jsonx.Obj
    [
      ("window", Num (float_of_int r.index));
      ("n", Num (float_of_int r.n));
      ("overflow", Num (float_of_int r.overflow));
      ("chi2", Num r.statistic);
      ("dof", Num (float_of_int r.dof));
      ("p_value", Num r.p_value);
      ("alpha_k", Num r.alpha_k);
      ("alarm", Bool r.alarm);
      ("max_log", Num r.max_log);
      ("renyi", Num r.renyi);
    ]

let pp_result fmt (r : window_result) =
  Format.fprintf fmt
    "window %d: n=%d chi2=%.2f (dof %d) p=%.4g alpha_k=%.3g%s max_log=%.4f \
     renyi=%.5f"
    r.index r.n r.statistic r.dof r.p_value r.alpha_k
    (if r.alarm then " ALARM" else "")
    r.max_log r.renyi

module P = Ctg_fault.Plan
module F = Ctg_falcon
module Sig = Ctg_samplers.Sampler_sig
module Engine = Ctg_engine
module Jsonx = Ctg_obs.Jsonx

type fault = Value of P.value_fault | Rng of P.rng_fault

type severity = { label : string; fault : fault }

let default_severities =
  [
    { label = "center-shift-0.05"; fault = Value (P.Center_shift { delta = 0.05 }) };
    { label = "center-shift-0.10"; fault = Value (P.Center_shift { delta = 0.10 }) };
    { label = "center-shift-0.25"; fault = Value (P.Center_shift { delta = 0.25 }) };
    { label = "var-deflate-0.05"; fault = Value (P.Variance_deflate { p = 0.05 }) };
    { label = "var-deflate-0.15"; fault = Value (P.Variance_deflate { p = 0.15 }) };
    { label = "stuck-bit-or01";
      fault = Rng (P.Stuck_bits { and_mask = 0xff; or_mask = 0x01 }) };
  ]

let smoke_severities =
  [
    { label = "center-shift-0.25"; fault = Value (P.Center_shift { delta = 0.25 }) };
    { label = "var-deflate-0.15"; fault = Value (P.Variance_deflate { p = 0.15 }) };
  ]

type config = {
  n : int;
  sigma : string;
  precision : int;
  tail_cut : int;
  budget : int;
  check_every : int;
  drift_window : int;
  attack_z : float;
  battery : Battery.config;
  severities : severity list;
}

(* The harness battery runs *sequentially* (re-evaluated at every
   checkpoint on the growing prefix), so its bounds are wider than the
   single-look offline defaults — z 4.0 / chi 1e-4 keep the clean arm's
   many correlated looks inside the false-alarm budget. *)
let default_config =
  {
    n = 64;
    sigma = "2";
    precision = 16;
    tail_cut = 13;
    budget = 2048;
    check_every = 16;
    drift_window = 2048;
    attack_z = 4.0;
    battery =
      { Battery.default_config with z_crit = 4.0; chi_alpha = 1e-4 };
    severities = default_severities;
  }

let smoke_config =
  { default_config with budget = 512; severities = smoke_severities }

type row = {
  label : string;
  fault_name : string;
  attack_sigs : int option;  (** First checkpoint with key-recovery signal. *)
  attack_z_final : float;  (** z at detection, or at budget exhaustion. *)
  drift_sigs : int option;
  battery_sigs : int option;
  battery_families : string list;  (** Families failing at first battery alarm. *)
  monitor_sigs : int option;  (** Earlier of the two monitors. *)
  winner : string;  (** "monitor" | "attack" | "neither". *)
  attack_wins_first : bool;
}

type report = {
  seed : int64;
  n : int;
  sigma : string;
  precision : int;
  budget : int;
  check_every : int;
  drift_window : int;
  attack_threshold : float;
  clean_attack_z : float;
  clean_drift_alarms : int;
  clean_battery_pass : bool;
  attack_signals : int;  (** Severities where the attack found signal. *)
  rows : row list;
  ok : bool;
}

(* --- key-correlation estimator ------------------------------------- *)

(* Negacyclic ring helpers over float coefficient vectors (Z[x]/(x^n+1)). *)

let adjoint a =
  let n = Array.length a in
  Array.init n (fun i -> if i = 0 then a.(0) else -.a.(n - i))

let negacyclic_conv a b =
  let n = Array.length a in
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do
    if a.(i) <> 0.0 then
      for j = 0 to n - 1 do
        let k = i + j in
        if k < n then out.(k) <- out.(k) +. (a.(i) *. b.(j))
        else out.(k - n) <- out.(k - n) -. (a.(i) *. b.(j))
      done
  done;
  out

(* (1 + x + ... + x^(n-1)) * h, i.e. the image of an all-ones mean shift:
   coefficient k is sum_{j<=k} h_j - sum_{j>k} h_j. *)
let ones_conv h =
  let n = Array.length h in
  let total = Array.fold_left ( +. ) 0.0 h in
  let out = Array.make n 0.0 in
  let running = ref 0.0 in
  for k = 0 to n - 1 do
    running := !running +. h.(k);
    out.(k) <- (2.0 *. !running) -. total
  done;
  out

let floats = Array.map float_of_int

(* Pearson correlation turned into a z score: under the null (no
   key-dependent structure) the correlation of a d-dimensional noise
   vector with a fixed template is ~ N(0, 1/d), so z = |r| sqrt(d). *)
let corr_z template v =
  let d = Array.length v in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int d in
  let mt = mean template and mv = mean v in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  for i = 0 to d - 1 do
    let x = template.(i) -. mt and y = v.(i) -. mv in
    sxy := !sxy +. (x *. y);
    sxx := !sxx +. (x *. x);
    syy := !syy +. (y *. y)
  done;
  if !sxx <= 0.0 || !syy <= 0.0 then 0.0
  else abs_float (!sxy /. sqrt (!sxx *. !syy)) *. sqrt (float_of_int d)

(* The Ratio-attack templates, derived from the secret key.

   First moment (center shift delta on every base draw): each of the 2n
   ffSampling leaf draws is one coefficient of the integer vector z, so
   E[z] = clean + delta * ones and d = t - z shifts by -delta * ones.
   With s1 = d0 g + d1 G and s2 = -(d0 f + d1 F):
     E[s1] = -delta (ones*g + ones*G),  E[s2] = +delta (ones*f + ones*F).

   Second moment (variance deflation): E[s1 * adj(s2)] picks up the key
   Gram structure -(v0 g adj(f) + v1 G adj(F)) scaled by the per-leaf
   variance; deflation moves it along -(g adj f + G adj F), measured as a
   difference against the clean-run baseline (granting the attacker a
   clean reference run — the strongest version of the attack). *)
type templates = { t1 : float array; t2 : float array }

let templates_of_secret (s : F.Keygen.secret) =
  let f = floats s.F.Keygen.f
  and g = floats s.F.Keygen.g
  and big_f = floats s.F.Keygen.big_f
  and big_g = floats s.F.Keygen.big_g in
  let add = Array.map2 ( +. ) in
  let neg = Array.map (fun x -> -.x) in
  let t1 =
    Array.append (neg (add (ones_conv g) (ones_conv big_g)))
      (add (ones_conv f) (ones_conv big_f))
  in
  let t2 =
    neg
      (add
         (negacyclic_conv g (adjoint f))
         (negacyclic_conv big_g (adjoint big_f)))
  in
  { t1; t2 }

(* --- one signing arm ------------------------------------------------ *)

type arm = {
  a_attack_sigs : int option;
  a_attack_z : float;
  a_drift_sigs : int option;
  a_battery_sigs : int option;
  a_battery_families : string list;
  a_cross_mean : float array;  (** mean of s1 * adj(s2) over the arm. *)
}

(* Growable draw buffer: every biased base draw the signer consumed, in
   order — the stream the checkpoint battery judges. *)
type draws = { mutable buf : int array; mutable len : int }

let draws_create () = { buf = Array.make 4096 0; len = 0 }

let draws_push d v =
  if d.len = Array.length d.buf then begin
    let bigger = Array.make (2 * d.len) 0 in
    Array.blit d.buf 0 bigger 0 d.len;
    d.buf <- bigger
  end;
  d.buf.(d.len) <- v;
  d.len <- d.len + 1

let run_arm ~(config : config) ~model ~kp ~(tpl : templates) ~baseline
    ~seed_str ~lane ~bias ~wrap_rng () =
  let n = config.n in
  let table = Ctg_samplers.Cdt_table.of_matrix (Battery.matrix model) in
  let inst = Ctg_samplers.Cdt_samplers.linear_ct table in
  let registry = Ctg_obs.Registry.create () in
  let drift =
    Ctg_assure.Drift.create
      ~config:
        {
          Ctg_assure.Drift.default_config with
          window = config.drift_window;
        }
      ~registry ~matrix:(Battery.matrix model) ()
  in
  let draws = draws_create () in
  let chunk = Array.make 256 0 and chunk_len = ref 0 in
  let flush_chunk () =
    if !chunk_len > 0 then begin
      Ctg_assure.Drift.observe_sub drift chunk ~pos:0 ~len:!chunk_len;
      chunk_len := 0
    end
  in
  let observe v =
    draws_push draws v;
    chunk.(!chunk_len) <- v;
    incr chunk_len;
    if !chunk_len = 256 then flush_chunk ()
  in
  let base = F.Base_sampler.of_instance ~observe ?bias inst in
  let rng =
    wrap_rng (Engine.Stream_fork.bitstream ~seed:seed_str ~lane ())
  in
  let two_n = 2 * n in
  let sum_vec = Array.make two_n 0.0 in
  let cross_acc = Array.make n 0.0 in
  let attack_sigs = ref None and attack_z = ref 0.0 in
  let drift_sigs = ref None in
  let battery_sigs = ref None and battery_families = ref [] in
  let i = ref 0 in
  let continue () =
    !i < config.budget
    && not
         (!attack_sigs <> None && !drift_sigs <> None
         && !battery_sigs <> None)
  in
  while continue () do
    incr i;
    let msg = Bytes.of_string (Printf.sprintf "ratio %s %d" seed_str !i) in
    let sg = F.Sign.sign kp base rng ~msg in
    let s1 = sg.F.Sign.s1 and s2 = sg.F.Sign.s2 in
    for k = 0 to n - 1 do
      sum_vec.(k) <- sum_vec.(k) +. float_of_int s1.(k);
      sum_vec.(n + k) <- sum_vec.(n + k) +. float_of_int s2.(k)
    done;
    let cross = negacyclic_conv (floats s1) (adjoint (floats s2)) in
    for k = 0 to n - 1 do
      cross_acc.(k) <- cross_acc.(k) +. cross.(k)
    done;
    (* Drift is evaluated per window as draws stream in; poll after every
       signature so the alarm is dated at signature granularity. *)
    if !drift_sigs = None && Ctg_assure.Drift.alarms drift > 0 then
      drift_sigs := Some !i;
    if !i mod config.check_every = 0 then begin
      let fn = float_of_int !i in
      let u = Array.map (fun s -> s /. fn) sum_vec in
      let z1 = corr_z tpl.t1 u in
      let z2 =
        match baseline with
        | None -> 0.0
        | Some b ->
          corr_z tpl.t2
            (Array.init n (fun k -> (cross_acc.(k) /. fn) -. b.(k)))
      in
      let z = Float.max z1 z2 in
      if z > !attack_z then attack_z := z;
      if !attack_sigs = None && z >= config.attack_z then
        attack_sigs := Some !i;
      if !battery_sigs = None then begin
        let v =
          Battery.evaluate ~config:config.battery model
            ~backend:inst.Sig.name ~samples:draws.buf ~len:draws.len
        in
        if not v.Battery.pass then begin
          battery_sigs := Some !i;
          battery_families := Battery.failed_families v
        end
      end
    end
  done;
  flush_chunk ();
  let total = float_of_int !i in
  {
    a_attack_sigs = !attack_sigs;
    a_attack_z = !attack_z;
    a_drift_sigs = !drift_sigs;
    a_battery_sigs = !battery_sigs;
    a_battery_families = !battery_families;
    a_cross_mean = Array.map (fun s -> s /. total) cross_acc;
  }

(* --- the matrix ----------------------------------------------------- *)

let min_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

let row_of_arm ~label ~fault_name (a : arm) =
  let monitor_sigs = min_opt a.a_drift_sigs a.a_battery_sigs in
  let attack_wins_first, winner =
    match (a.a_attack_sigs, monitor_sigs) with
    | None, None -> (false, "neither")
    | None, Some _ -> (false, "monitor")
    | Some _, None -> (true, "attack")
    | Some at, Some mo -> if mo < at then (false, "monitor") else (true, "attack")
  in
  {
    label;
    fault_name;
    attack_sigs = a.a_attack_sigs;
    attack_z_final = a.a_attack_z;
    drift_sigs = a.a_drift_sigs;
    battery_sigs = a.a_battery_sigs;
    battery_families = a.a_battery_families;
    monitor_sigs;
    winner;
    attack_wins_first;
  }

let fault_name = function
  | Value v -> P.value_fault_name v
  | Rng r -> P.rng_fault_name r

let run ?(config : config = default_config) ~seed () =
  let params = F.Params.custom ~n:config.n in
  let seed_str = Printf.sprintf "saga-ratio-%Lx" seed in
  let kp =
    F.Keygen.generate params
      (Engine.Stream_fork.bitstream ~seed:seed_str ~lane:999_983 ())
  in
  let tpl = templates_of_secret kp.F.Keygen.secret in
  let matrix =
    Ctg_kyao.Matrix.create ~sigma:config.sigma ~precision:config.precision
      ~tail_cut:config.tail_cut
  in
  let model = Battery.model matrix in
  let sm = Ctg_prng.Splitmix64.create seed in
  let next_seed () = Ctg_prng.Splitmix64.next sm in
  (* Clean pilot, split in two: the first half's cross-correlation mean is
     the attacker's clean reference; the second half, judged against it,
     is the clean control for the second-moment estimator.  The whole
     pilot doubles as the monitors' clean control. *)
  let _pilot_seed = next_seed () in
  let half_budget = config.budget / 2 in
  let clean_a =
    run_arm
      ~config:{ config with budget = half_budget }
      ~model ~kp ~tpl ~baseline:None ~seed_str ~lane:1 ~bias:None
      ~wrap_rng:Fun.id ()
  in
  let clean_b =
    run_arm
      ~config:{ config with budget = half_budget }
      ~model ~kp ~tpl
      ~baseline:(Some clean_a.a_cross_mean)
      ~seed_str ~lane:2 ~bias:None ~wrap_rng:Fun.id ()
  in
  let baseline =
    (* Attacker's reference: the full pilot. *)
    Array.init config.n (fun k ->
        0.5 *. (clean_a.a_cross_mean.(k) +. clean_b.a_cross_mean.(k)))
  in
  let clean_attack_z = Float.max clean_a.a_attack_z clean_b.a_attack_z in
  let clean_drift_alarms =
    (match clean_a.a_drift_sigs with Some _ -> 1 | None -> 0)
    + (match clean_b.a_drift_sigs with Some _ -> 1 | None -> 0)
  in
  let clean_battery_pass =
    clean_a.a_battery_sigs = None && clean_b.a_battery_sigs = None
  in
  let rows =
    List.mapi
      (fun idx sev ->
        let plan_seed = next_seed () in
        let bias, wrap_rng =
          match sev.fault with
          | Value vf ->
            ( Some (P.value_transform (P.value_plan ~seed:plan_seed vf)),
              Fun.id )
          | Rng rf ->
            let plan = P.rng_plan ~seed:plan_seed rf in
            (None, fun bs -> P.wrap plan ~lane:0 bs)
        in
        let arm =
          run_arm ~config ~model ~kp ~tpl ~baseline:(Some baseline)
            ~seed_str ~lane:(10 + idx) ~bias ~wrap_rng ()
        in
        row_of_arm ~label:sev.label ~fault_name:(fault_name sev.fault) arm)
      config.severities
  in
  let attack_signals =
    List.length (List.filter (fun r -> r.attack_sigs <> None) rows)
  in
  let ok =
    List.for_all (fun r -> not r.attack_wins_first) rows
    && clean_attack_z < config.attack_z
    && clean_drift_alarms = 0 && clean_battery_pass && attack_signals >= 1
  in
  {
    seed;
    n = config.n;
    sigma = config.sigma;
    precision = config.precision;
    budget = config.budget;
    check_every = config.check_every;
    drift_window = config.drift_window;
    attack_threshold = config.attack_z;
    clean_attack_z;
    clean_drift_alarms;
    clean_battery_pass;
    attack_signals;
    rows;
    ok;
  }

(* --- reporting ------------------------------------------------------ *)

let opt_sigs = function None -> "-" | Some s -> string_of_int s

let opt_json = function
  | None -> Jsonx.Null
  | Some s -> Jsonx.Num (float_of_int s)

let row_json r =
  Jsonx.Obj
    [
      ("severity", Str r.label);
      ("fault", Str r.fault_name);
      ("attack_sigs", opt_json r.attack_sigs);
      ("attack_z", Num r.attack_z_final);
      ("drift_sigs", opt_json r.drift_sigs);
      ("battery_sigs", opt_json r.battery_sigs);
      ( "battery_families",
        List (List.map (fun f -> Jsonx.Str f) r.battery_families) );
      ("monitor_sigs", opt_json r.monitor_sigs);
      ("winner", Str r.winner);
      ("attack_wins_first", Bool r.attack_wins_first);
    ]

let to_json r =
  Jsonx.Obj
    [
      ("seed", Str (Printf.sprintf "0x%Lx" r.seed));
      ("n", Num (float_of_int r.n));
      ("sigma", Str r.sigma);
      ("precision", Num (float_of_int r.precision));
      ("budget", Num (float_of_int r.budget));
      ("check_every", Num (float_of_int r.check_every));
      ("drift_window", Num (float_of_int r.drift_window));
      ("attack_threshold", Num r.attack_threshold);
      ("clean_attack_z", Num r.clean_attack_z);
      ("clean_drift_alarms", Num (float_of_int r.clean_drift_alarms));
      ("clean_battery_pass", Bool r.clean_battery_pass);
      ("attack_signals", Num (float_of_int r.attack_signals));
      ("rows", List (List.map row_json r.rows));
      ("ok", Bool r.ok);
    ]

let pp_row fmt r =
  Format.fprintf fmt
    "%-18s %-16s attack=%-5s(z=%5.1f)  drift=%-5s battery=%-5s%s -> %s%s"
    r.label r.fault_name (opt_sigs r.attack_sigs) r.attack_z_final
    (opt_sigs r.drift_sigs)
    (opt_sigs r.battery_sigs)
    (match r.battery_families with
    | [] -> ""
    | fs -> Printf.sprintf "[%s]" (String.concat "," fs))
    r.winner
    (if r.attack_wins_first then "  ATTACK-WINS-FIRST" else "")

let pp_report fmt r =
  Format.fprintf fmt
    "ratio-attack crossover: n=%d sigma=%s budget=%d sigs, checkpoints \
     every %d, drift window %d draws@."
    r.n r.sigma r.budget r.check_every r.drift_window;
  Format.fprintf fmt
    "clean control: attack z=%.2f (threshold %.1f), drift alarms=%d, \
     battery %s@."
    r.clean_attack_z r.attack_threshold r.clean_drift_alarms
    (if r.clean_battery_pass then "PASS" else "FAIL");
  List.iter (fun row -> Format.fprintf fmt "  %a@." pp_row row) r.rows;
  Format.fprintf fmt "verdict: %s@."
    (if r.ok then "OK (monitors fire first on every severity)"
     else "FAIL")

(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §4 for the experiment index) plus the
   ablations and the committed overhead and budget gates.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe table1          # one artifact
     dune exec bench/main.exe fig5 --full     # paper-scale histograms

   Absolute numbers are simulator-bound (OCaml, 63-lane bitslicing); the
   claims under reproduction are the *relative* shapes.  EXPERIMENTS.md
   records paper-vs-measured for each artifact. *)

module F = Ctg_falcon
module Sig = Ctg_samplers.Sampler_sig
module Bs = Ctg_prng.Bitstream

let printf = Format.printf
let line () = printf "%s@." (String.make 72 '-')

let section name =
  printf "@.%s@.== %s ==@.%s@." (String.make 72 '=') name (String.make 72 '=')

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ns per call, robust to a noisy shared machine: time [rounds] windows
   of [min_time] each and keep the fastest window — contention can only
   inflate a window, never deflate it, so the minimum tracks the true
   cost. *)
let ns_per_call ?(min_time = 0.25) ?(rounds = 5) f =
  ignore (f ());
  let window () =
    let t0 = Unix.gettimeofday () in
    let calls = ref 0 in
    let elapsed = ref 0.0 in
    while !elapsed < min_time do
      f ();
      incr calls;
      elapsed := Unix.gettimeofday () -. t0
    done;
    !elapsed *. 1e9 /. float_of_int !calls
  in
  let best = ref (window ()) in
  for _ = 2 to rounds do
    let w = window () in
    if w < !best then best := w
  done;
  !best

let fresh_rng tag = Bs.of_chacha (Ctg_prng.Chacha20.of_seed ("bench-" ^ tag))

(* -------------------------------------------------------------------- *)
(* Shared, lazily-built artifacts                                        *)
(* -------------------------------------------------------------------- *)

let falcon_precision = 128
let tail_cut = 13

let enum_sigma2 =
  lazy
    (Ctg_kyao.Leaf_enum.enumerate
       (Ctg_kyao.Matrix.create ~sigma:"2" ~precision:falcon_precision ~tail_cut))

let enum_sigma6 =
  lazy
    (Ctg_kyao.Leaf_enum.enumerate
       (Ctg_kyao.Matrix.create ~sigma:"6.15543" ~precision:falcon_precision
          ~tail_cut))

(* The paper's sampler as the registry serves it: bound to its generated
   kernel, so Table 1, X2 and X3 measure the code that runs. *)
let bitsliced_sigma2 =
  lazy
    (Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma:"2"
       ~precision:falcon_precision ~tail_cut ())

let cdt_table_sigma2 =
  lazy
    (Ctg_samplers.Cdt_table.of_matrix
       (Lazy.force enum_sigma2).Ctg_kyao.Leaf_enum.matrix)

let keypair_cache : (int, F.Keygen.keypair) Hashtbl.t = Hashtbl.create 3

let keypair params =
  let n = params.F.Params.n in
  match Hashtbl.find_opt keypair_cache n with
  | Some kp -> kp
  | None ->
    let kp, dt =
      time_once (fun () -> F.Keygen.generate params (fresh_rng "keygen"))
    in
    printf "  [keygen %s: %.1fs, %d draw(s), NTRU eq %b]@." (F.Params.name params)
      dt kp.F.Keygen.attempts
      (F.Keygen.check_ntru_equation kp);
    Hashtbl.replace keypair_cache n kp;
    kp

(* The four Table-1 samplers, freshly instantiated. *)
let table1_samplers () =
  let table = Lazy.force cdt_table_sigma2 in
  [
    ("byte-scan CDT", `NonCt, Ctg_samplers.Cdt_samplers.byte_scan table);
    ("CDT", `NonCt, Ctg_samplers.Cdt_samplers.binary_search table);
    ("linear-search CDT", `Ct, Ctg_samplers.Cdt_samplers.linear_ct table);
    ("this work", `Ct, Sig.of_bitsliced (Lazy.force bitsliced_sigma2));
  ]

(* -------------------------------------------------------------------- *)
(* Table 1: Falcon signing throughput under the four base samplers       *)
(* -------------------------------------------------------------------- *)

let paper_table1 =
  (* signs/sec on the authors' i7-6600U: byte-scan, CDT, linear, ours. *)
  [ (256, [ 10327.; 8041.; 6080.; 7025. ]);
    (512, [ 5220.; 4064.; 3027.; 3527. ]);
    (1024, [ 2640.; 2014.; 1519.; 1754. ]) ]

let signs_per_sec kp inst ~min_time =
  let base = F.Base_sampler.of_instance inst in
  let rng = fresh_rng ("table1-" ^ inst.Sig.name) in
  let counter = ref 0 in
  let sign () =
    incr counter;
    let msg = Bytes.of_string (Printf.sprintf "table1 message %d" !counter) in
    ignore (F.Sign.sign kp base rng ~msg)
  in
  1e9 /. ns_per_call ~min_time sign

let cmd_table1 ?(min_time = 0.4) () =
  section "Table 1: Falcon-sign throughput, four base samplers";
  printf "paper reference in parentheses; ratios vs byte-scan in brackets@.@.";
  printf "%-22s %14s %14s %14s %14s@." "" "byte-scan CDT" "CDT"
    "linear CDT(ct)" "this work(ct)";
  List.iter
    (fun params ->
      let kp = keypair params in
      let rates =
        List.map
          (fun (_, _, inst) -> signs_per_sec kp inst ~min_time)
          (table1_samplers ())
      in
      let paper = List.assoc params.F.Params.n paper_table1 in
      let base_rate = List.nth rates 0 in
      let base_paper = List.nth paper 0 in
      printf "%-22s" (F.Params.name params);
      List.iter2
        (fun r p -> printf " %6.0f (%6.0f)" r p)
        rates paper;
      printf "@.%-22s" "  ratio vs byte-scan";
      List.iter2
        (fun r p ->
          printf " [%4.2f] ((%4.2f))" (r /. base_rate) (p /. base_paper))
        rates paper;
      printf "@.")
    F.Params.all;
  printf
    "@.shape: the linear-search CT penalty (the paper's worst case) comes@.";
  printf "through strongly; byte-scan vs CDT vs this work is compressed@.";
  printf "because the interpreted ffSampling fixed cost is a larger share@.";
  printf "here than in the authors' C code — see EXPERIMENTS.md (T1).@."

(* -------------------------------------------------------------------- *)
(* Table 2: sampler kernel, ours vs simple minimization                  *)
(* -------------------------------------------------------------------- *)

let batch_kernel ?kernel program =
  (* PRNG excluded, exactly like the paper's Table 2 footnote: inputs are
     pre-drawn, we time only the bitsliced evaluation of one batch. *)
  let scratch = Ctgauss.Bitslice.scratch program in
  let rng = fresh_rng "table2" in
  let inputs =
    Array.init program.Ctgauss.Gate.num_vars (fun _ -> Bs.next_word rng)
  in
  match kernel with
  | Some k -> fun () -> Ctgauss.Bitslice.eval_kernel k scratch ~inputs
  | None -> fun () -> Ctgauss.Bitslice.eval program scratch ~inputs

let cmd_table2 () =
  section "Table 2: constant-time sampler, this work vs simple minimization";
  printf
    "per-batch kernel time (63 samples, PRNG excluded as in the paper);@.";
  printf "pseudo-cycles = ns x 2.6 (the paper's 2.6 GHz i7-6600U)@.@.";
  let paper = [ ("2", 3787., 2293.); ("6.15543", 11136., 9880.) ] in
  printf "%-10s %28s %28s %12s@." "sigma" "simple [21]" "this work" "improvement";
  List.iter
    (fun (sigma, enum) ->
      let enum = Lazy.force enum in
      let options = { Ctgauss.Compile.default_options with with_valid = false } in
      let ours = Ctgauss.Compile.compile ~options (Ctgauss.Sublist.build enum) in
      let simple = Ctgauss.Compile_simple.compile ~with_valid:false enum in
      let t_ours = ns_per_call (batch_kernel ours) in
      let t_simple = ns_per_call (batch_kernel simple) in
      let impr = 100. *. (1. -. (t_ours /. t_simple)) in
      let paper_simple, paper_ours, paper_impr =
        match List.find_opt (fun (s, _, _) -> s = sigma) paper with
        | Some (_, s, o) -> (s, o, 100. *. (1. -. (o /. s)))
        | None -> (nan, nan, nan)
      in
      printf "%-10s %7.0f ns %5d gates %7.0f ns %5d gates %9.1f%%@." sigma
        t_simple
        (Ctgauss.Gate.gate_count simple)
        t_ours
        (Ctgauss.Gate.gate_count ours)
        impr;
      printf "%-10s %10.0f pseudo-cycles %12.0f pseudo-cycles@." ""
        (t_simple *. 2.6) (t_ours *. 2.6);
      printf "%-10s %10.0f paper-cycles %13.0f paper-cycles %8.1f%% (paper)@.@."
        "" paper_simple paper_ours paper_impr)
    [ ("2", enum_sigma2); ("6.15543", enum_sigma6) ];
  (* The registry's program (valid flag included) is the one with a
     build-time straight-line kernel: this is the code that serves. *)
  printf "generated straight-line kernel vs the interpreter, same program:@.";
  List.iter
    (fun (sigma, _, paper_ours) ->
      let s =
        Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma
          ~precision:falcon_precision ~tail_cut ()
      in
      let program = Ctgauss.Sampler.program s in
      let gates = float_of_int (Ctgauss.Gate.gate_count program) in
      let kernel = Ctg_kernels.Kernels.find (Ctgauss.Sampler.digest s) in
      let t_interp = ns_per_call (batch_kernel program) in
      let t_gen = ns_per_call (batch_kernel ?kernel program) in
      printf
        "%-10s interpreted %7.0f ns %5.2f ns/gate   generated %7.0f ns %5.2f \
         ns/gate %6.0f pseudo-cycles (paper %.0f)%s@."
        sigma t_interp (t_interp /. gates) t_gen (t_gen /. gates) (t_gen *. 2.6)
        paper_ours
        (if Option.is_none kernel then "  [no kernel: both interpreted]" else ""))
    paper

(* -------------------------------------------------------------------- *)
(* Figures                                                               *)
(* -------------------------------------------------------------------- *)

let cmd_fig1 () =
  section "Fig. 1: probability matrix and DDG tree (sigma=2, n=6)";
  let gt = Ctg_fixed.Gaussian_table.create ~sigma:"2" ~precision:6 ~tail_cut in
  printf "%a@." Ctg_fixed.Gaussian_table.pp_matrix gt;
  let m = Ctg_kyao.Matrix.of_table gt in
  printf "DDG tree (root at left; * = unresolved residual):@.";
  printf "%a@." Ctg_kyao.Ddg_tree.pp (Ctg_kyao.Ddg_tree.build m)

let cmd_fig2 () =
  section "Fig. 2: random bits -> sample bits as Boolean functions (sigma=2, n=6)";
  let m = Ctg_kyao.Matrix.create ~sigma:"2" ~precision:6 ~tail_cut in
  let enum = Ctg_kyao.Leaf_enum.enumerate m in
  printf "leaf mapping (b_0 rightmost, x = don't care):@.%a@."
    (Ctg_kyao.Leaf_enum.pp_list ?max_rows:None)
    enum;
  (* The global functions f^i_6, minimized over all 6 input bits. *)
  let sample_bits = max 1 (Ctg_util.Bits.bits_needed m.Ctg_kyao.Matrix.support) in
  let tables =
    Array.init sample_bits (fun _ ->
        Ctg_boolmin.Truth_table.create ~vars:6 ~default:Ctg_boolmin.Truth_table.Dc)
  in
  for x = 0 to 63 do
    let bits = Array.init 6 (fun i -> (x lsr i) land 1 = 1) in
    match Ctg_kyao.Column_sampler.walk_bits m bits with
    | Ctg_kyao.Column_sampler.Hit { value; _ } ->
      for bit = 0 to sample_bits - 1 do
        let v =
          if (value lsr bit) land 1 = 1 then Ctg_boolmin.Truth_table.On
          else Ctg_boolmin.Truth_table.Off
        in
        Ctg_boolmin.Truth_table.set tables.(bit) x v
      done
    | Ctg_kyao.Column_sampler.Exhausted -> ()
  done;
  printf "minimized f^i_6 (variable order b_0..b_5; 'x' = unused):@.";
  Array.iteri
    (fun i tt ->
      let sop = Ctg_boolmin.Sop.minimize tt in
      printf "  f^%d = %s@." i (Ctg_boolmin.Sop.to_string ~vars:6 sop))
    tables

let cmd_fig3 () =
  section "Fig. 3: list L sorted into sublists l_k (sigma=2, n=16)";
  let m = Ctg_kyao.Matrix.create ~sigma:"2" ~precision:16 ~tail_cut in
  let enum = Ctg_kyao.Leaf_enum.enumerate m in
  printf "%a@." (Ctg_kyao.Leaf_enum.pp_list ?max_rows:None) enum;
  printf "delta = %d, n' = %d, %d leaf strings@." enum.Ctg_kyao.Leaf_enum.delta
    enum.Ctg_kyao.Leaf_enum.max_ones
    (Array.length enum.Ctg_kyao.Leaf_enum.leaves)

let cmd_fig4 () =
  section "Fig. 4: minimization pipeline, stage by stage (sigma=2, n=128)";
  let p = Ctgauss.Pipeline.run ~sigma:"2" ~precision:falcon_precision ~tail_cut () in
  printf "%a@." Ctgauss.Pipeline.pp p

let cmd_fig5 ~full () =
  section "Fig. 5: histograms of the compiled samplers";
  let total = if full then 64 * 10_000_000 else 63 * 100_000 in
  List.iter
    (fun (sigma, enum) ->
      let s = Ctgauss.Sampler.of_enum (Lazy.force enum) in
      let rng = fresh_rng ("fig5-" ^ sigma) in
      let samples = Array.make total 0 in
      Ctgauss.Sampler.fill s rng samples ~pos:0 ~len:total;
      let hist = Ctg_stats.Histogram.of_samples samples in
      printf "@.sigma = %s, %d samples: mean %+.4f, std %.4f@." sigma total
        (Ctg_stats.Histogram.mean hist)
        (Ctg_stats.Histogram.std_dev hist);
      printf "%a@." (Ctg_stats.Histogram.pp_bars ~width:56) hist;
      (* Goodness of fit against the exact table. *)
      let m = (Lazy.force enum).Ctg_kyao.Leaf_enum.matrix in
      let exact = Ctg_stats.Distance.exact_probabilities m in
      let support = m.Ctg_kyao.Matrix.support in
      let observed =
        Array.init (support + 1) (fun v ->
            if v = 0 then Ctg_stats.Histogram.count hist 0
            else
              Ctg_stats.Histogram.count hist v + Ctg_stats.Histogram.count hist (-v))
      in
      let expected = Array.map (fun p -> p *. float_of_int total) exact in
      let r = Ctg_stats.Chi_square.test ~observed ~expected in
      printf "chi-square vs exact distribution: X2=%.2f (dof %d) p=%.4f@."
        r.Ctg_stats.Chi_square.statistic r.Ctg_stats.Chi_square.dof
        r.Ctg_stats.Chi_square.p_value)
    [ ("2", enum_sigma2); ("6.15543", enum_sigma6) ]

(* -------------------------------------------------------------------- *)
(* X1: the Delta observation                                             *)
(* -------------------------------------------------------------------- *)

let cmd_delta () =
  section "X1 (Sec. 5): payload bound Delta for sigma = 1, 2, 6.15543, 215";
  let paper = [ ("1", 4); ("2", 4); ("6.15543", 6); ("215", 15) ] in
  printf "%-10s %8s %8s %10s %12s@." "sigma" "delta" "paper" "leaves" "unresolved";
  List.iter
    (fun (sigma, paper_delta) ->
      let m = Ctg_kyao.Matrix.create ~sigma ~precision:falcon_precision ~tail_cut in
      let e = Ctg_kyao.Leaf_enum.enumerate m in
      printf "%-10s %8d %8d %10d %12d   thm1=%b@." sigma e.Ctg_kyao.Leaf_enum.delta
        paper_delta
        (Array.length e.Ctg_kyao.Leaf_enum.leaves)
        e.Ctg_kyao.Leaf_enum.unresolved
        (Ctg_kyao.Leaf_enum.check_theorem1 e))
    paper;
  printf "@.(exact Delta depends on the probability rounding pipeline; the@.";
  printf "claim under test is that Delta stays small and grows slowly in sigma)@."

(* -------------------------------------------------------------------- *)
(* X2: PRNG overhead share (paper Sec. 7)                                *)
(* -------------------------------------------------------------------- *)

let cmd_prng_overhead () =
  section "X2 (Sec. 7): share of sampling time spent in the PRNG";
  let s = Lazy.force bitsliced_sigma2 in
  let kernel =
    batch_kernel
      ?kernel:(Ctg_kernels.Kernels.find (Ctgauss.Sampler.digest s))
      (Ctgauss.Sampler.program s)
  in
  let t_kernel = ns_per_call kernel in
  let with_prng make_rng name =
    let rng = make_rng () in
    let t_total = ns_per_call (fun () -> ignore (Ctgauss.Sampler.batch_magnitude s rng)) in
    let share = 100. *. (t_total -. t_kernel) /. t_total in
    printf "  %-10s %8.0f ns/batch total, %6.0f ns kernel -> PRNG+pack %.0f%%@."
      name t_total t_kernel share
  in
  with_prng (fun () -> fresh_rng "prng-chacha") "ChaCha20";
  with_prng
    (fun () -> Bs.of_shake (Ctg_prng.Keccak.shake128 (Bytes.of_string "seed")))
    "SHAKE128";
  printf "@.paper: 80-85%% with Keccak, ~60%% with ChaCha (their C kernel is@.";
  printf "faster than ours, so their PRNG share is higher; the ordering@.";
  printf "Keccak-share > ChaCha-share is the reproduced claim)@."

(* -------------------------------------------------------------------- *)
(* X3: dudect                                                            *)
(* -------------------------------------------------------------------- *)

let cmd_dudect () =
  section "X3 (Sec. 5.2): dudect leakage assessment on op-count traces";
  let table = Lazy.force cdt_table_sigma2 in
  let m = (Lazy.force enum_sigma2).Ctg_kyao.Leaf_enum.matrix in
  let audit (inst : Sig.instance) =
    let zero = Bs.of_bits (Array.make 40_000_000 false) in
    let rnd = fresh_rng ("dudect-" ^ inst.Sig.name) in
    let measure = function
      | Ctg_ctcheck.Dudect.Fix -> snd (inst.Sig.sample_traced zero)
      | Ctg_ctcheck.Dudect.Random -> snd (inst.Sig.sample_traced rnd)
    in
    let config =
      { Ctg_ctcheck.Dudect.default_config with measurements = 15_000 }
    in
    let r = Ctg_ctcheck.Dudect.test_ops ~config measure in
    printf "  %-16s claimed-ct=%-5b %a@." inst.Sig.name inst.Sig.constant_time
      Ctg_ctcheck.Dudect.pp_report r
  in
  List.iter audit
    [
      Ctg_samplers.Cdt_samplers.byte_scan table;
      Ctg_samplers.Cdt_samplers.binary_search table;
      Ctg_samplers.Cdt_samplers.linear_ct table;
      Sig.knuth_yao_reference m;
      Ctg_samplers.Rejection.create m;
      Sig.of_bitsliced (Lazy.force bitsliced_sigma2);
    ];
  printf "@.(the bitsliced trace is the gate count by construction: every@.";
  printf "call executes the full straight-line program)@."

(* -------------------------------------------------------------------- *)
(* Ablations                                                             *)
(* -------------------------------------------------------------------- *)

let cmd_ablation_min () =
  section "A1: exact (Petrick) vs greedy cover minimization";
  printf "%-10s %18s %18s@." "sigma" "exact gates/ns" "greedy gates/ns";
  List.iter
    (fun (sigma, enum) ->
      let enum = Lazy.force enum in
      let sublists = Ctgauss.Sublist.build enum in
      let build exact =
        Ctgauss.Compile.compile
          ~options:
            {
              Ctgauss.Compile.default_options with
              with_valid = false;
              exact_minimize = exact;
            }
          sublists
      in
      let exact = build true and greedy = build false in
      printf "%-10s %8d %8.0f %8d %8.0f@." sigma
        (Ctgauss.Gate.gate_count exact)
        (ns_per_call (batch_kernel exact))
        (Ctgauss.Gate.gate_count greedy)
        (ns_per_call (batch_kernel greedy)))
    [ ("2", enum_sigma2); ("6.15543", enum_sigma6) ];
  printf "@.(the sublist split keeps tables tiny, so greedy is near-exact;@.";
  printf "the win of exactness is real but small — that is itself a finding)@."

let cmd_ablation_chain () =
  section "A2: structural sharing (selector chain CSE) on vs off";
  let enum = Lazy.force enum_sigma2 in
  let sublists = Ctgauss.Sublist.build enum in
  let build share =
    Ctgauss.Compile.compile
      ~options:
        {
          Ctgauss.Compile.default_options with
          with_valid = false;
          share_selectors = share;
        }
      sublists
  in
  let shared = build true and unshared = build false in
  printf "  shared:   %6d gates, %.0f ns/batch@."
    (Ctgauss.Gate.gate_count shared)
    (ns_per_call (batch_kernel shared));
  printf "  unshared: %6d gates, %.0f ns/batch@."
    (Ctgauss.Gate.gate_count unshared)
    (ns_per_call (batch_kernel unshared));
  printf "@.(without sharing, every selector c_k rebuilds its own prefix AND@.";
  printf "chain: the quadratic blowup the incremental chain avoids)@."

(* -------------------------------------------------------------------- *)
(* A3: precision requirement, SD vs max-log analysis (paper Sec. 7)      *)
(* -------------------------------------------------------------------- *)

let cmd_precision () =
  section "A3 (Sec. 7): how many probability bits does sigma=2 really need?";
  let candidates = [ 16; 32; 48; 64; 80; 96; 112; 128; 160; 200 ] in
  let reports =
    Ctg_stats.Precision.sweep ~sigma:"2" ~tail_cut:13 ~reference:256 candidates
  in
  List.iter (fun r -> printf "  %a@." Ctg_stats.Precision.pp_report r) reports;
  (* Falcon-flavoured budget: 2^64 signatures x 2N=2^11 samples. *)
  let lambda = 128 and log2_total_samples = 75 in
  let sd_t = Ctg_stats.Precision.sd_target ~lambda ~log2_total_samples in
  let ml_t = Ctg_stats.Precision.max_log_target ~lambda ~log2_total_samples in
  printf "@.lambda=%d over 2^%d samples: SD target 2^%.0f, max-log target 2^%.0f@."
    lambda log2_total_samples sd_t ml_t;
  let show which name target =
    match Ctg_stats.Precision.minimal_precision reports ~target_log2:target ~which with
    | Some n -> printf "  %-8s analysis: n = %d suffices@." name n
    | None -> printf "  %-8s analysis: no swept n reaches the target@." name
  in
  show `Sd "SD" sd_t;
  show `Max_log "max-log" ml_t;
  printf
    "@.finding: with floor-rounded Knuth-Yao tables the max-log distance is@.";
  printf "pinned at ~2^-(n - 123) by the smallest retained tail probability@.";
  printf "(p_min ~ 2^-123 at sigma=2, tau=13), so the Renyi/max-log route@.";
  printf "needs relative-error probability storage, not just fewer bits —@.";
  printf "quantifying why the paper calls this a research direction rather@.";
  printf "than a drop-in optimization.  The SD column shows the classical@.";
  printf "rule log2(SD) ~ -(n-4) holding across the sweep.@."

(* -------------------------------------------------------------------- *)
(* A4: the sampler as a base for large sigma (paper Sec. 3 claim)        *)
(* -------------------------------------------------------------------- *)

let cmd_large_sigma () =
  section "A4 (Sec. 3): convolution to large sigma from the sigma=2 base";
  let base = Lazy.force bitsliced_sigma2 in
  printf "%-28s %12s %12s %10s %12s@." "construction" "target sigma"
    "measured" "ns/sample" "base-draws";
  List.iter
    (fun (k, levels) ->
      let c = Ctg_samplers.Convolution.create ~base ~k ~levels in
      let rng = fresh_rng (Printf.sprintf "conv-%d-%d" k levels) in
      let mom = Ctg_stats.Moments.create () in
      let trials = 40_000 in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to trials do
        Ctg_stats.Moments.add mom
          (float_of_int (Ctg_samplers.Convolution.sample c rng))
      done;
      let dt = Unix.gettimeofday () -. t0 in
      printf "%-28s %12.2f %12.2f %10.0f %12d@."
        (Printf.sprintf "k=%d, levels=%d" k levels)
        (Ctg_samplers.Convolution.sigma_effective c)
        (Ctg_stats.Moments.std_dev mom)
        (dt *. 1e9 /. float_of_int trials)
        (Ctg_samplers.Convolution.base_samples_per_output c))
    [ (4, 1); (8, 1); (4, 2); (11, 2) ];
  printf "@.(sigma=215 ~ the paper's largest table: directly it needs a@.";
  printf "2796-row matrix and a 112k-leaf enumeration; by convolution it@.";
  printf "costs 4 base draws — the composition the paper cites [25,28])@."

(* -------------------------------------------------------------------- *)
(* A5: quality cost of the fixed-sigma substitution                      *)
(* -------------------------------------------------------------------- *)

let cmd_sampler_quality () =
  section "A5: signature quality, fixed sigma=2 base vs exact SamplerZ";
  let params = F.Params.level1 in
  let kp = keypair params in
  let bound = F.Sign.norm_bound_sq params in
  let run name base =
    let rng = fresh_rng ("quality-" ^ name) in
    let mom = Ctg_stats.Moments.create () in
    let attempts = ref 0 in
    let trials = 60 in
    for i = 1 to trials do
      let msg = Bytes.of_string (Printf.sprintf "quality %d" i) in
      let s = F.Sign.sign kp base rng ~msg in
      attempts := !attempts + s.F.Sign.attempts;
      Ctg_stats.Moments.add mom (sqrt s.F.Sign.norm_sq)
    done;
    printf "  %-24s |s| mean %7.0f  std %6.0f  attempts/sig %.2f@." name
      (Ctg_stats.Moments.mean mom)
      (Ctg_stats.Moments.std_dev mom)
      (float_of_int !attempts /. float_of_int trials);
    Ctg_stats.Moments.mean mom
  in
  let paper_mode =
    run "paper (sigma=2, rounded)"
      (F.Base_sampler.of_instance
         (Sig.of_bitsliced (Lazy.force bitsliced_sigma2)))
  in
  let ideal = run "ideal (per-leaf sigma')" (F.Base_sampler.ideal ()) in
  printf "@.norm ratio paper/ideal: %.2f (prediction sqrt(4.08/1.37) = 1.73);@."
    (paper_mode /. ideal);
  printf "verification bound sqrt: %.0f — both modes fit with margin.@."
    (sqrt bound);
  printf "shorter vectors mean better security for the same parameters:@.";
  printf "this is the quality the fixed-sigma plug gives up (DESIGN.md par. 2).@."

(* -------------------------------------------------------------------- *)
(* Engine: multicore batch-sampling throughput (and BENCH_engine.json)   *)
(* -------------------------------------------------------------------- *)

let cmd_engine ?(json_path = "BENCH_engine.json") () =
  section "Engine: domain-parallel batch sampling, 1 vs P domains";
  let domain_counts = [ 1; 2; 4 ] in
  let hw = Domain.recommended_domain_count () in
  printf "hardware reports %d usable domain(s)%s@.@." hw
    (if hw < 4 then
       " — speedups above that count are scheduling overhead, not gain"
     else "");
  (* (sigma, domains, n, seconds, rate, speedup) rows; [domains > hw] rows
     are flagged oversubscribed in the JSON so a reader does not mistake
     scheduling overhead for a parallel-scaling regression. *)
  let results = ref [] in
  List.iter
    (fun sigma ->
      let sampler =
        Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma
          ~precision:falcon_precision ~tail_cut ()
      in
      printf "sigma = %s (%d gates)@." sigma (Ctgauss.Sampler.gate_count sampler);
      (* Determinism first: the same seed must give the same array for
         every domain count (the engine's correctness guarantee). *)
      let reference = ref [||] in
      List.iter
        (fun domains ->
          let pool =
            Ctg_engine.Pool.create ~domains ~seed:"bench-engine-det" sampler
          in
          let out = Ctg_engine.Pool.batch_parallel pool ~n:((63 * 64) + 11) in
          Ctg_engine.Pool.shutdown pool;
          if !reference = [||] then reference := out
          else if out <> !reference then
            failwith
              (Printf.sprintf
                 "engine determinism violated at sigma=%s domains=%d" sigma
                 domains))
        domain_counts;
      printf "  determinism: same seed -> same samples for %s domains@."
        (String.concat "/" (List.map string_of_int domain_counts));
      let n = 63 * 8000 in
      let base_rate = ref nan in
      List.iter
        (fun domains ->
          let pool =
            Ctg_engine.Pool.create ~domains ~seed:"bench-engine" sampler
          in
          ignore (Ctg_engine.Pool.batch_parallel pool ~n:(63 * 64));
          (* Best of 3 windows, same rationale as ns_per_call. *)
          let best = ref infinity in
          for _ = 1 to 3 do
            let t0 = Unix.gettimeofday () in
            ignore (Ctg_engine.Pool.batch_parallel pool ~n);
            let dt = Unix.gettimeofday () -. t0 in
            if dt < !best then best := dt
          done;
          Ctg_engine.Pool.shutdown pool;
          let rate = float_of_int n /. !best in
          if domains = 1 then base_rate := rate;
          printf "  %d domain(s): %9.0f samples/sec  (%.3fs for %d)  x%.2f vs 1@."
            domains rate !best n (rate /. !base_rate);
          results :=
            (sigma, domains, n, !best, rate, rate /. !base_rate) :: !results)
        domain_counts;
      printf "@.")
    [ "2"; "6.15543" ];
  (* Machine-readable trajectory for future PRs. *)
  let module J = Ctg_obs.Jsonx in
  let entries = List.rev !results in
  let max_real_speedup =
    List.fold_left
      (fun acc (_, domains, _, _, _, speedup) ->
        if domains <= hw then Float.max acc speedup else acc)
      1.0 entries
  in
  let row (sigma, domains, n, seconds, rate, speedup) =
    J.Obj
      [
        ("sigma", J.Str sigma);
        ("domains", J.Num (float_of_int domains));
        ("samples", J.Num (float_of_int n));
        ("seconds", J.Num seconds);
        ("samples_per_sec", J.Num (Float.round rate));
        ("speedup_vs_1", J.Num speedup);
        ("oversubscribed", J.Bool (domains > hw));
      ]
  in
  let json =
    J.Obj
      [
        ("benchmark", J.Str "engine");
        ("hardware_domains", J.Num (float_of_int hw));
        ( "interpretation",
          J.Str
            (if hw = 1 then
               "single-core host: every multi-domain row is oversubscribed \
                and speedup_vs_1 < 1 measures scheduling overhead, not a \
                scaling regression"
             else
               Printf.sprintf
                 "rows with domains <= %d measure real scaling (best x%.2f); \
                  oversubscribed rows measure scheduling overhead" hw
                 max_real_speedup) );
        ("results", J.List (List.map row entries));
      ]
  in
  let oc = open_out json_path in
  output_string oc (J.pretty json);
  output_char oc '\n';
  close_out oc;
  printf "wrote %s@." json_path

(* -------------------------------------------------------------------- *)
(* Gates: static gate/depth budgets (and BENCH_gates.json)               *)
(* -------------------------------------------------------------------- *)

let cmd_gates ?(json_path = "BENCH_gates.json") () =
  section "Gates: compiled program budgets per Table-2 sigma (ctg_lint baseline)";
  printf "%-10s %6s %8s %8s %14s@." "sigma" "n" "gates" "depth" "simple gates";
  let entries =
    List.map
      (fun (t : Ctg_analysis.Analyze.target) ->
        let e, dt = time_once (fun () -> Ctg_analysis.Analyze.measure t) in
        printf "%-10s %6d %8d %8d %14d   (%.1fs)@." e.Ctg_analysis.Budget.sigma
          e.Ctg_analysis.Budget.precision e.Ctg_analysis.Budget.gates
          e.Ctg_analysis.Budget.depth e.Ctg_analysis.Budget.simple_gates dt;
        e)
      Ctg_analysis.Analyze.default_targets
  in
  Ctg_analysis.Budget.save json_path { Ctg_analysis.Budget.entries };
  printf "@.wrote %s — ctg_lint fails CI when a compiler change regresses@."
    json_path;
  printf "these budgets (gate count is the paper's cost proxy)@."

(* -------------------------------------------------------------------- *)
(* Overhead gates: obs|alloc|fault|assure|pauses (BENCH_<name>.json)     *)
(* -------------------------------------------------------------------- *)

let cmd_gate ?(smoke = false) (row : Ctg_overhead.Harness.row) =
  let module H = Ctg_overhead.Harness in
  section
    (Printf.sprintf "%s overhead gate%s" (String.capitalize_ascii row.name)
       (if smoke then " (smoke run)" else ""));
  printf "baseline vs gated arms, median of paired passes@.@.";
  match H.measure row (H.sizes ~smoke row) with
  | None -> printf "SKIP: the %s gate cannot run in this environment@." row.name
  | Some report ->
    List.iter (printf "  %a@." H.pp_entry) report.entries;
    let path = H.file ~smoke row in
    H.save path report;
    printf "@.wrote %s@." path;
    if H.ok report then
      printf "OK: every %s entry under %.1f%% and every extra check holds@."
        row.name row.threshold_pct
    else begin
      printf "FAIL: %s overhead budget exceeded or an extra check failed@."
        row.name;
      exit 1
    end

(* -------------------------------------------------------------------- *)
(* Saga: acceptance-battery cost budget (and BENCH_saga.json)            *)
(* -------------------------------------------------------------------- *)

let cmd_saga ?(smoke = false) () =
  section
    (if smoke then "Saga: acceptance-battery evaluation cost (smoke run)"
     else "Saga: acceptance-battery evaluation cost vs raw sampling");
  let samples = if smoke then 50_000 else 200_000 in
  let rounds = if smoke then 2 else 3 in
  printf "CDT linear-ct draw loop vs draw + full battery evaluation@.@.";
  let entries = Ctg_saga.Saga_bench.run ~samples ~rounds () in
  List.iter (fun e -> printf "  %a@." Ctg_saga.Saga_bench.pp_entry e) entries;
  let path = if smoke then "BENCH_saga_smoke.json" else "BENCH_saga.json" in
  Ctg_saga.Saga_bench.save path entries;
  printf "@.wrote %s@." path;
  if Ctg_saga.Saga_bench.ok entries then
    printf "OK: battery evaluation costs < %.0f%% of sampling, all verdicts \
            clean@."
      Ctg_saga.Saga_bench.threshold_pct
  else begin
    printf "FAIL: battery evaluation over budget or a clean stream failed@.";
    exit 1
  end

(* -------------------------------------------------------------------- *)
(* Serve: signing-daemon SLO gate (and BENCH_serve.json)                 *)
(* -------------------------------------------------------------------- *)

let cmd_serve ?(smoke = false) () =
  section
    (if smoke then "Serve: daemon SLO gate (smoke run)"
     else "Serve: signing-daemon latency SLO vs direct sign_many");
  let per_tenant = if smoke then 12 else 24 in
  printf
    "daemon on an ephemeral port, 3 tenants x %d concurrent requests, \
     client-observed latency@.@."
    per_tenant;
  let entry = Ctg_serve.Serve_bench.measure ~n:16 ~tenants:3 ~per_tenant () in
  printf "  %a@." Ctg_serve.Serve_bench.pp_entry entry;
  let path = if smoke then "BENCH_serve_smoke.json" else "BENCH_serve.json" in
  Ctg_serve.Serve_bench.save path [ entry ];
  printf "@.wrote %s@." path;
  if Ctg_serve.Serve_bench.ok entry then
    printf "OK: p99 within %.0fx of direct signing, coalescing observed, \
            nothing shed@."
      Ctg_serve.Serve_bench.slo_mult
  else begin
    printf "FAIL: serving SLO missed (tail latency, coalescing, shed, or \
            health)@.";
    exit 1
  end

(* -------------------------------------------------------------------- *)
(* History: perf trajectory over the committed BENCH baselines           *)
(* -------------------------------------------------------------------- *)

let cmd_history ?(tolerance_pct = 25.0) () =
  section "History: perf trajectory (BENCH_history.jsonl)";
  let path = "BENCH_history.jsonl" in
  let record = Ctg_assure.Trend.collect ~dir:"." () in
  printf "fingerprint: %a@." Ctg_assure.Trend.pp_fingerprint
    record.Ctg_assure.Trend.fp;
  printf "collected %d metrics from the committed baselines@."
    (List.length record.Ctg_assure.Trend.metrics);
  let history = Ctg_assure.Trend.load ~path in
  let verdict =
    match
      Ctg_assure.Trend.baseline_for record.Ctg_assure.Trend.fp history
    with
    | None ->
      printf "no prior record for this fingerprint — nothing to gate@.";
      `Ok
    | Some baseline ->
      printf "comparing against the %s record@."
        baseline.Ctg_assure.Trend.time;
      let regs =
        Ctg_assure.Trend.regressions ~tolerance_pct ~baseline record
      in
      let moved =
        List.filter
          (fun (d : Ctg_assure.Trend.delta) -> abs_float d.pct >= 5.0)
          (Ctg_assure.Trend.deltas ~baseline record)
      in
      if moved = [] then printf "no latency metric moved by 5%% or more@."
      else begin
        printf "movers (>= 5%%):@.";
        List.iter
          (fun (d : Ctg_assure.Trend.delta) ->
            if Ctg_assure.Trend.is_latency_key d.Ctg_assure.Trend.key then
              printf "  %a@." Ctg_assure.Trend.pp_delta d)
          moved
      end;
      if regs = [] then `Ok else `Regressed regs
  in
  Ctg_assure.Trend.append ~path record;
  printf "appended to %s (%d records)@." path (List.length history + 1);
  match verdict with
  | `Ok -> printf "OK: no _ns metric regressed past %.0f%%@." tolerance_pct
  | `Regressed regs ->
    List.iter
      (fun d -> printf "FAIL: %a@." Ctg_assure.Trend.pp_delta d)
      regs;
    exit 1

(* -------------------------------------------------------------------- *)
(* Engine: parallel Falcon signing (Table 1 at service scale)            *)
(* -------------------------------------------------------------------- *)

let cmd_sign_many () =
  section "Engine: sign_many, independent messages across domains";
  let params = F.Params.level1 in
  let kp = keypair params in
  let master = Lazy.force bitsliced_sigma2 in
  let make_base () =
    F.Base_sampler.of_instance
      (Sig.of_bitsliced (Ctgauss.Sampler.clone master))
  in
  let msgs =
    Array.init 24 (fun i -> Bytes.of_string (Printf.sprintf "service msg %d" i))
  in
  List.iter
    (fun domains ->
      let t0 = Unix.gettimeofday () in
      let sigs =
        F.Sign.sign_many ~domains kp ~make_base ~seed:"bench-sign-many" ~msgs
      in
      let dt = Unix.gettimeofday () -. t0 in
      let ok =
        Array.for_all
          (fun (s : F.Sign.signature) -> s.F.Sign.norm_sq > 0.0)
          sigs
      in
      printf "  %d domain(s): %5.1f signs/sec (%d msgs in %.2fs, all ok %b)@."
        domains
        (float_of_int (Array.length msgs) /. dt)
        (Array.length msgs) dt ok)
    [ 1; 2; 4 ];
  printf "@.(message i always signs from stream lane i: the signature set@.";
  printf "is identical for every domain count — test_engine proves it)@."

(* -------------------------------------------------------------------- *)
(* Sync: the race-checker shim must be compiled out of release benches   *)
(* -------------------------------------------------------------------- *)

let cmd_sync () =
  section "Sync: checked-mode shim overhead on raw atomic traffic";
  (* Hard guard first: a release bench run with the recording scheduler
     active would gate garbage numbers.  [is_active] must be false in
     every production process. *)
  if Ctg_sync.Sync.Internal.is_active () then begin
    printf "FAIL: Ctg_sync checked mode is active in a release bench@.";
    exit 1
  end;
  let ops = 2_000_000 in
  let shim_pass () =
    let open Ctg_sync.Shim in
    let a = Atomic.make 0 in
    let t0 = Unix.gettimeofday () in
    for i = 0 to ops - 1 do
      Atomic.incr a;
      if Atomic.get a land 65535 = 0 then Atomic.set a (Sys.opaque_identity i)
    done;
    ignore (Sys.opaque_identity (Atomic.get a));
    Unix.gettimeofday () -. t0
  in
  let raw_pass () =
    let a = Stdlib.Atomic.make 0 in
    let t0 = Unix.gettimeofday () in
    for i = 0 to ops - 1 do
      Stdlib.Atomic.incr a;
      if Stdlib.Atomic.get a land 65535 = 0 then
        Stdlib.Atomic.set a (Sys.opaque_identity i)
    done;
    ignore (Sys.opaque_identity (Stdlib.Atomic.get a));
    Unix.gettimeofday () -. t0
  in
  (* Warm both paths, then interleave paired passes so drift hits both
     sides equally; the median pass absorbs outliers. *)
  ignore (shim_pass ());
  ignore (raw_pass ());
  let rounds = 9 in
  let deltas =
    List.init rounds (fun _ ->
        let r = raw_pass () in
        let s = shim_pass () in
        (s -. r) /. float_of_int ops *. 1e9)
  in
  let sorted = List.sort compare deltas in
  let median = List.nth sorted (rounds / 2) in
  printf "shim minus raw, median of %d paired passes: %.2f ns/op@." rounds
    median;
  (* The gate is on *absolute* per-op cost, not a ratio: without flambda
     the wrapper is an un-inlined call around a ~5 ns atomic instruction,
     so a bare back-to-back atomic loop shows a large relative factor
     that no production path ever sees (the pipeline touches an atomic
     once per 63-sample batch or 1008-sample chunk, i.e. nanoseconds per
     microseconds of work).  The end-to-end proof that the shim is free
     on real paths is the unchanged BENCH_obs/fault/assure budgets over
     the migrated tree; this bench pins the per-op bound that argument
     rests on. *)
  let gate_ns = 15.0 in
  if median <= gate_ns then
    printf "OK: production shim costs %.2f ns/op (<= %.0f ns gate);@."
      median gate_ns
  else begin
    printf "FAIL: shim overhead %.2f ns/op exceeds %.0f ns gate@." median
      gate_ns;
    exit 1
  end;
  printf "end-to-end: BENCH_obs/fault/assure budgets gate the hot paths@."

(* -------------------------------------------------------------------- *)
(* Dispatch                                                              *)
(* -------------------------------------------------------------------- *)

let usage () =
  printf
    "usage: main.exe [all|table1|table2|fig1|fig2|fig3|fig4|fig5|delta|@.";
  printf "                 prng-overhead|dudect|ablation-min|ablation-chain|@.";
  printf "                 precision|large-sigma|sampler-quality|engine|@.";
  printf "                 gates|sign-many|obs|alloc|fault|assure|saga|serve|pauses|history|sync]@.";
  printf "        [--full]        (fig5 at the paper's 64x10^7 samples)@.";
  printf
    "        [--smoke]       (obs/alloc/fault/assure/serve/pauses: CI-sized \
     windows -> BENCH_*_smoke.json)@.";
  printf "        [--trace FILE]  (record spans, write Chrome trace JSON)@."

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let rec take_trace = function
    | [] -> (None, [])
    | "--trace" :: path :: rest ->
      let _, rest = take_trace rest in
      (Some path, rest)
    | a :: rest ->
      let t, rest = take_trace rest in
      (t, a :: rest)
  in
  let trace, args = take_trace args in
  let args = List.filter (fun a -> a <> "--full" && a <> "--smoke") args in
  let cmd = match args with [] -> "all" | c :: _ -> c in
  (match trace with None -> () | Some _ -> Ctg_obs.Trace.enable ());
  at_exit (fun () ->
      match trace with
      | None -> ()
      | Some path ->
        Ctg_obs.Trace.disable ();
        Ctg_obs.Trace.write path;
        printf "wrote trace to %s@." path);
  match cmd with
  | "table1" -> cmd_table1 ()
  | "table2" -> cmd_table2 ()
  | "fig1" -> cmd_fig1 ()
  | "fig2" -> cmd_fig2 ()
  | "fig3" -> cmd_fig3 ()
  | "fig4" -> cmd_fig4 ()
  | "fig5" -> cmd_fig5 ~full ()
  | "delta" -> cmd_delta ()
  | "prng-overhead" -> cmd_prng_overhead ()
  | "dudect" -> cmd_dudect ()
  | "ablation-min" -> cmd_ablation_min ()
  | "ablation-chain" -> cmd_ablation_chain ()
  | "precision" -> cmd_precision ()
  | "large-sigma" -> cmd_large_sigma ()
  | "sampler-quality" -> cmd_sampler_quality ()
  | "engine" -> cmd_engine ()
  | "gates" -> cmd_gates ()
  | "sign-many" -> cmd_sign_many ()
  | "saga" -> cmd_saga ~smoke ()
  | "serve" -> cmd_serve ~smoke ()
  | "history" -> cmd_history ()
  | "sync" -> cmd_sync ()
  | "all" ->
    cmd_fig1 ();
    cmd_fig2 ();
    cmd_fig3 ();
    cmd_fig4 ();
    cmd_delta ();
    cmd_table2 ();
    cmd_fig5 ~full ();
    cmd_prng_overhead ();
    cmd_dudect ();
    cmd_ablation_min ();
    cmd_ablation_chain ();
    cmd_precision ();
    cmd_large_sigma ();
    cmd_gates ();
    cmd_engine ();
    List.iter (fun row -> cmd_gate row) Ctg_overhead.Rows.[ obs; fault; assure ];
    cmd_table1 ();
    cmd_sampler_quality ();
    cmd_sign_many ();
    line ();
    printf "done; see EXPERIMENTS.md for paper-vs-measured discussion@."
  | "help" | "--help" | "-h" -> usage ()
  | other -> (
    match Ctg_overhead.Rows.find other with
    | Some row -> cmd_gate ~smoke row
    | None ->
      printf "unknown command %S@." other;
      usage ();
      exit 1)

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
module H = Ctg_overhead.Harness

let printf = Format.printf
let line () = printf "%s@." (String.make 72 '-')

let section name =
  printf "@.%s@.== %s ==@.%s@." (String.make 72 '=') name (String.make 72 '=')

(* ns per call of each thunk, timed as the loops of one paired group
   (the overhead harness's estimator, which every comparison printed
   here shares): 100 calls per pass, the loop order rotated per group,
   and each thunk after the first reported as the first's median times
   its median ratio to it within a group. *)
let ns_per_call fs =
  let loop f = (false, fun ~lane:_ -> for _ = 1 to 100 do f () done) in
  H.estimate (H.paired_ns ~rounds:5 ~min_time:0.25 ~samples:100 (Array.map loop fs))

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
    let t0 = Unix.gettimeofday () in
    let kp = F.Keygen.generate params (fresh_rng "keygen") in
    let dt = Unix.gettimeofday () -. t0 in
    printf "  [keygen %s: %.1fs, %d draw(s), NTRU eq %b]@." (F.Params.name params)
      dt kp.F.Keygen.attempts
      (F.Keygen.check_ntru_equation kp);
    Hashtbl.replace keypair_cache n kp;
    kp

(* -------------------------------------------------------------------- *)
(* Table 1: Falcon signing throughput under the four base samplers       *)
(* -------------------------------------------------------------------- *)

let paper_table1 =
  (* signs/sec on the authors' i7-6600U: byte-scan, CDT, linear, ours. *)
  [ (256, [ 10327.; 8041.; 6080.; 7025. ]);
    (512, [ 5220.; 4064.; 3027.; 3527. ]);
    (1024, [ 2640.; 2014.; 1519.; 1754. ]) ]

(* A level's four samplers are the loops of one paired group (the
   overhead harness's estimator): every pass signs the same messages from
   the group's lane, the loop order rotates per group, and each ratio to
   byte-scan is read within a group, so host drift hits the four alike. *)
let cmd_table1 () =
  section "Table 1: Falcon-sign throughput, four base samplers";
  printf "paper reference in parentheses; ratios vs byte-scan in brackets:@.";
  printf "median and interquartile range over paired groups@.@.";
  printf "%-22s %14s %14s %14s %14s@." "" "byte-scan CDT" "CDT"
    "linear CDT(ct)" "this work(ct)";
  let msgs =
    Array.init 8 (fun i -> Bytes.of_string (Printf.sprintf "table1 message %d" i))
  in
  let table = Lazy.force cdt_table_sigma2 in
  List.iter
    (fun params ->
      let kp = keypair params in
      (* One loop per sampler, freshly instantiated, byte-scan first. *)
      let loop inst =
        let base = F.Base_sampler.of_instance inst in
        ( false,
          fun ~lane ->
            let rng = fresh_rng (Printf.sprintf "table1-%d" lane) in
            Array.iter (fun msg -> ignore (F.Sign.sign kp base rng ~msg)) msgs )
      in
      let groups =
        H.paired_ns ~rounds:5 ~min_time:1.0
          ~samples:(Array.length msgs)
          (Array.map loop
             Ctg_samplers.Cdt_samplers.
               [|
                 byte_scan table;
                 binary_search table;
                 linear_ct table;
                 Sig.of_bitsliced (Lazy.force bitsliced_sigma2);
               |])
      in
      let ns = H.estimate groups in
      let ratios i = Array.map (fun (g : float array) -> g.(0) /. g.(i)) groups in
      let paper = Array.of_list (List.assoc params.F.Params.n paper_table1) in
      printf "%-22s" (F.Params.name params);
      Array.iteri (fun i t -> printf " %6.0f (%6.0f)" (1e9 /. t) paper.(i)) ns;
      printf "@.%-22s" "  ratio vs byte-scan";
      Array.iteri
        (fun i p ->
          printf " [%4.2f] ((%4.2f))" (H.quantile (ratios i) 0.5) (p /. paper.(0)))
        paper;
      printf "@.%-22s" (Printf.sprintf "  IQR, %d groups" (Array.length groups));
      Array.iteri
        (fun i _ ->
          printf "       %4.2f-%4.2f" (H.quantile (ratios i) 0.25)
            (H.quantile (ratios i) 0.75))
        paper;
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
      let t = ns_per_call [| batch_kernel simple; batch_kernel ours |] in
      let t_simple = t.(0) and t_ours = t.(1) in
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
      let t = ns_per_call [| batch_kernel program; batch_kernel ?kernel program |] in
      let t_interp = t.(0) and t_gen = t.(1) in
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
  let batch rng () = ignore (Ctgauss.Sampler.batch_magnitude s rng) in
  let t =
    ns_per_call
      [|
        kernel;
        batch (fresh_rng "prng-chacha");
        batch (Bs.of_shake (Ctg_prng.Keccak.shake128 (Bytes.of_string "seed")));
      |]
  in
  List.iteri
    (fun i name ->
      let t_total = t.(i + 1) in
      printf "  %-10s %8.0f ns/batch total, %6.0f ns kernel -> PRNG+pack %.0f%%@."
        name t_total t.(0)
        (100. *. (t_total -. t.(0)) /. t_total))
    [ "ChaCha20"; "SHAKE128" ];
  printf "@.paper: 80-85%% with Keccak, ~60%% with ChaCha (their C kernel is@.";
  printf "faster than ours, so their PRNG share is higher; the ordering@.";
  printf "Keccak-share > ChaCha-share is the reproduced claim)@."

(* -------------------------------------------------------------------- *)
(* X3: dudect                                                            *)
(* -------------------------------------------------------------------- *)

(* The one dudect audit, and a gate: every sampler of the registry
   sampler's zoo plus rejection, fix class on an all-zero stream rebuilt
   for every call (so each fix measurement sees the same input, however
   many bits a call draws) against a random class.  It fails when a
   sampler that claims constant time is flagged, or when the non-CT
   knuth-yao-ref control is not. *)
let cmd_dudect () =
  section "X3 (Sec. 5.2): dudect leakage assessment on op-count traces";
  let sampler = Lazy.force bitsliced_sigma2 in
  let audit (inst : Sig.instance) =
    let rnd = fresh_rng ("dudect-" ^ inst.Sig.name) in
    let measure = function
      | Ctg_ctcheck.Dudect.Fix ->
        snd (inst.Sig.sample_traced (Bs.of_byte_fn (fun () -> 0)))
      | Ctg_ctcheck.Dudect.Random -> snd (inst.Sig.sample_traced rnd)
    in
    let config =
      { Ctg_ctcheck.Dudect.default_config with measurements = 15_000 }
    in
    let r = Ctg_ctcheck.Dudect.test_ops ~config measure in
    printf "  %-16s claimed-ct=%-5b %a@." inst.Sig.name inst.Sig.constant_time
      Ctg_ctcheck.Dudect.pp_report r;
    if inst.Sig.constant_time && r.Ctg_ctcheck.Dudect.leaky then
      Some (inst.Sig.name ^ ": claims constant time but is flagged LEAKY")
    else if inst.Sig.name = "knuth-yao-ref" && not r.Ctg_ctcheck.Dudect.leaky
    then Some (inst.Sig.name ^ ": the non-CT control was not flagged")
    else None
  in
  let failures =
    List.filter_map audit
      (Ctg_samplers.Cdt_samplers.zoo sampler
      @ [ Ctg_samplers.Rejection.create (Ctgauss.Sampler.matrix sampler) ])
  in
  printf "@.(the bitsliced trace is the bits one whole batch consumes,@.";
  printf "scalar-fallback lanes included)@.";
  if failures <> [] then begin
    List.iter (fun f -> printf "FAIL: %s@." f) failures;
    exit 1
  end

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
      let t = ns_per_call [| batch_kernel exact; batch_kernel greedy |] in
      printf "%-10s %8d %8.0f %8d %8.0f@." sigma
        (Ctgauss.Gate.gate_count exact)
        t.(0)
        (Ctgauss.Gate.gate_count greedy)
        t.(1))
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
  let t = ns_per_call [| batch_kernel shared; batch_kernel unshared |] in
  printf "  shared:   %6d gates, %.0f ns/batch@."
    (Ctgauss.Gate.gate_count shared)
    t.(0);
  printf "  unshared: %6d gates, %.0f ns/batch@."
    (Ctgauss.Gate.gate_count unshared)
    t.(1);
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
(* Overhead gates: the rows of lib/overhead (BENCH_<name>.json)          *)
(* -------------------------------------------------------------------- *)

let cmd_gate ?(smoke = false) (row : H.row) =
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
  (* Append only on a pass: a failing record must not become the next
     run's baseline. *)
  match verdict with
  | `Ok ->
    Ctg_assure.Trend.append ~path record;
    printf "appended to %s (%d records)@." path (List.length history + 1);
    printf "OK: no _ns metric regressed past %.0f%%@." tolerance_pct
  | `Regressed regs ->
    List.iter
      (fun d -> printf "FAIL: %a@." Ctg_assure.Trend.pp_delta d)
      regs;
    printf "not appended to %s@." path;
    exit 1

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
  let shim_pass ~lane:_ =
    let open Ctg_sync.Shim in
    let a = Atomic.make 0 in
    for i = 0 to ops - 1 do
      Atomic.incr a;
      if Atomic.get a land 65535 = 0 then Atomic.set a (Sys.opaque_identity i)
    done;
    ignore (Sys.opaque_identity (Atomic.get a))
  in
  let raw_pass ~lane:_ =
    let a = Stdlib.Atomic.make 0 in
    for i = 0 to ops - 1 do
      Stdlib.Atomic.incr a;
      if Stdlib.Atomic.get a land 65535 = 0 then
        Stdlib.Atomic.set a (Sys.opaque_identity i)
    done;
    ignore (Sys.opaque_identity (Stdlib.Atomic.get a))
  in
  (* The harness's paired passes, so drift hits both sides equally; the
     median per-pair difference absorbs outliers. *)
  let groups =
    H.paired_ns ~rounds:5 ~min_time:0.1 ~samples:ops
      [| (false, raw_pass); (false, shim_pass) |]
  in
  let median = H.quantile (Array.map (fun g -> g.(1) -. g.(0)) groups) 0.5 in
  printf "shim minus raw, median of %d paired passes: %.2f ns/op@."
    (Array.length groups) median;
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
  printf "                 precision|large-sigma|sampler-quality|@.";
  printf "                 obs|alloc|fault|assure|saga|pauses|serve|history|sync]@.";
  printf "        [--full]        (fig5 at the paper's 64x10^7 samples)@.";
  printf
    "        [--smoke]       (obs/alloc/fault/assure/saga/pauses/serve: CI-sized \
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
    List.iter (fun row -> cmd_gate row) Ctg_overhead.Rows.[ obs; fault; assure ];
    cmd_table1 ();
    cmd_sampler_quality ();
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

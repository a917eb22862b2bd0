(* Knuth-Yao machinery: matrix/DDG consistency, Algorithm 1 against the
   explicit tree and against Eqn. 1's GAP function, leaf enumeration and
   Theorem 1. *)

module Matrix = Ctg_kyao.Matrix
module Cs = Ctg_kyao.Column_sampler
module Le = Ctg_kyao.Leaf_enum
module Ddg = Ctg_kyao.Ddg_tree
module Gap = Ctg_kyao.Gap
module Bs = Ctg_prng.Bitstream

let m_small = Matrix.create ~sigma:"2" ~precision:6 ~tail_cut:13
let m_mid = Matrix.create ~sigma:"2" ~precision:24 ~tail_cut:13
let m_wide = Matrix.create ~sigma:"6.15543" ~precision:20 ~tail_cut:13

let random_bits rng n =
  Array.init n (fun _ -> Ctg_prng.Splitmix64.next_int rng 2 = 1)

let unit_tests =
  [
    Alcotest.test_case "DDG leaf counts equal column weights" `Quick (fun () ->
        List.iter
          (fun m ->
            Alcotest.(check (array int))
              "h_i" m.Matrix.col_weight
              (Ddg.leaf_count_per_level m))
          [ m_small; m_mid; m_wide ]);
    Alcotest.test_case "row_for scans from the bottom" `Quick (fun () ->
        (* Column 1 of the sigma=2, n=6 matrix has a single set row: P1. *)
        Alcotest.(check int) "col1 rank0" 1 (Matrix.row_for m_small ~col:1 ~rank:0);
        (* Column 2 has rows 0,2,3 set; rank 0 is the bottom-most (3). *)
        Alcotest.(check int) "col2 rank0" 3 (Matrix.row_for m_small ~col:2 ~rank:0);
        Alcotest.(check int) "col2 rank2" 0 (Matrix.row_for m_small ~col:2 ~rank:2));
    Alcotest.test_case "walk agrees with explicit tree walk" `Quick (fun () ->
        let tree = Ddg.build m_mid in
        let rng = Ctg_prng.Splitmix64.create 5L in
        for _ = 1 to 2000 do
          let bits = random_bits rng 24 in
          let via_alg1 = Cs.walk_bits m_mid bits in
          let via_tree = Ddg.walk_tree tree (Bs.of_bits bits) in
          match (via_alg1, via_tree) with
          | Cs.Hit { value; _ }, Some v ->
            Alcotest.(check int) "same sample" value v
          | Cs.Exhausted, None -> ()
          | Cs.Hit _, None | Cs.Exhausted, Some _ ->
            Alcotest.fail "tree and Alg.1 disagree on termination"
        done);
    Alcotest.test_case "walk agrees with GAP (Eqn. 1)" `Quick (fun () ->
        let rng = Ctg_prng.Splitmix64.create 17L in
        for _ = 1 to 300 do
          let bits = random_bits rng 24 in
          let hit_level =
            match Cs.walk_bits m_mid bits with
            | Cs.Hit { level; _ } -> Some level
            | Cs.Exhausted -> None
          in
          Alcotest.(check (option int))
            "first negative GAP = hit level" hit_level
            (Gap.first_negative m_mid bits)
        done);
    Alcotest.test_case "Theorem 1 holds across sigmas" `Quick (fun () ->
        List.iter
          (fun m ->
            let e = Le.enumerate m in
            Alcotest.(check bool) "no all-ones leaf" true (Le.check_theorem1 e))
          [ m_small; m_mid; m_wide ]);
    Alcotest.test_case "leaf count equals sum of column weights" `Quick
      (fun () ->
        List.iter
          (fun m ->
            let e = Le.enumerate m in
            Alcotest.(check int) "sum h_i" (Matrix.leaves_total m)
              (Array.length e.Le.leaves))
          [ m_small; m_mid; m_wide ]);
    Alcotest.test_case "every enumerated leaf replays to its value" `Quick
      (fun () ->
        let e = Le.enumerate m_mid in
        Array.iter
          (fun (leaf : Le.leaf) ->
            match Cs.walk_bits m_mid leaf.Le.bits with
            | Cs.Hit { value; level } ->
              Alcotest.(check int) "value" leaf.Le.value value;
              Alcotest.(check int) "level" leaf.Le.level level
            | Cs.Exhausted -> Alcotest.fail "leaf string does not terminate")
          e.Le.leaves);
    Alcotest.test_case "leaf structure x^i (0/1)^j 0 1^k" `Quick (fun () ->
        let e = Le.enumerate m_mid in
        Array.iter
          (fun (leaf : Le.leaf) ->
            (* First [ones] bits are 1, then a 0. *)
            for i = 0 to leaf.Le.ones - 1 do
              Alcotest.(check bool) "prefix ones" true leaf.Le.bits.(i)
            done;
            Alcotest.(check bool) "separator zero" false leaf.Le.bits.(leaf.Le.ones);
            Alcotest.(check int) "payload length" leaf.Le.payload
              (leaf.Le.level - leaf.Le.ones))
          e.Le.leaves);
    Alcotest.test_case "delta is small (paper Sec. 5)" `Quick (fun () ->
        let check sigma expected_max =
          let m = Matrix.create ~sigma ~precision:64 ~tail_cut:13 in
          let e = Le.enumerate m in
          Alcotest.(check bool)
            (Printf.sprintf "delta(%s)=%d <= %d" sigma e.Le.delta expected_max)
            true
            (e.Le.delta <= expected_max)
        in
        check "1" 5;
        check "2" 6;
        check "6.15543" 8);
    Alcotest.test_case "unresolved count equals scaled residual" `Quick
      (fun () ->
        let gt = Ctg_fixed.Gaussian_table.create ~sigma:"2" ~precision:12 ~tail_cut:13 in
        let m = Matrix.of_table gt in
        let e = Le.enumerate m in
        Alcotest.(check int) "residual"
          (Ctg_bigint.Nat.to_int (Ctg_fixed.Gaussian_table.residual gt))
          e.Le.unresolved);
    Alcotest.test_case "sampling distribution matches probabilities" `Quick
      (fun () ->
        let bs = Bs.of_splitmix (Ctg_prng.Splitmix64.create 23L) in
        let trials = 60_000 in
        let counts = Array.make (m_mid.Matrix.support + 1) 0 in
        for _ = 1 to trials do
          let v = Cs.sample_magnitude m_mid bs in
          counts.(v) <- counts.(v) + 1
        done;
        let expected = Ctg_stats.Distance.exact_probabilities m_mid in
        let r =
          Ctg_stats.Chi_square.test ~observed:counts
            ~expected:(Array.map (fun p -> p *. float_of_int trials) expected)
        in
        Alcotest.(check bool)
          (Printf.sprintf "chi2 p=%.4f" r.Ctg_stats.Chi_square.p_value)
          true
          (r.Ctg_stats.Chi_square.p_value > 0.001));
    Alcotest.test_case "signed sampling is symmetric" `Quick (fun () ->
        let bs = Bs.of_splitmix (Ctg_prng.Splitmix64.create 29L) in
        let pos = ref 0 and neg = ref 0 in
        for _ = 1 to 40_000 do
          let v = Cs.sample_signed m_mid bs in
          if v > 0 then incr pos else if v < 0 then incr neg
        done;
        let ratio = float_of_int !pos /. float_of_int !neg in
        Alcotest.(check bool) "balanced" true (ratio > 0.95 && ratio < 1.05));
    Alcotest.test_case "sample_magnitude = restarted walk, same bits" `Quick
      (fun () ->
        (* The allocation-free loop must read exactly the bits of the
           reference restarts; n=6 exhausts often, so restarts run. *)
        let rec reference m bs =
          match Cs.walk m bs with
          | Cs.Hit { value; _ } -> value
          | Cs.Exhausted -> reference m bs
        in
        List.iter
          (fun m ->
            let mk () = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "walk") in
            let a = mk () and b = mk () in
            for _ = 1 to 3000 do
              let v = Cs.sample_magnitude m a in
              Alcotest.(check int) "value" (reference m b) v;
              Alcotest.(check int) "bits" (Bs.bits_consumed b) (Bs.bits_consumed a)
            done)
          [ m_small; m_mid; m_wide ]);
  ]

let prop_tests =
  let open QCheck in
  List.map QCheck_alcotest.to_alcotest
    [
      Test.make ~name:"walk_bits is a function of its bits only" ~count:100
        small_nat
        (fun seed ->
          let rng = Ctg_prng.Splitmix64.create (Int64.of_int seed) in
          let bits = random_bits rng 24 in
          Cs.walk_bits m_mid bits = Cs.walk_bits m_mid (Array.copy bits));
      Test.make ~name:"hit value always within support" ~count:300 small_nat
        (fun seed ->
          let rng = Ctg_prng.Splitmix64.create (Int64.of_int (seed * 31 + 1)) in
          let bits = random_bits rng 24 in
          match Cs.walk_bits m_mid bits with
          | Cs.Hit { value; level } ->
            value >= 0 && value <= m_mid.Matrix.support && level < 24
          | Cs.Exhausted -> true);
      Test.make ~name:"GAP is negative exactly at hits" ~count:100 small_nat
        (fun seed ->
          let rng = Ctg_prng.Splitmix64.create (Int64.of_int (seed + 977)) in
          let bits = random_bits rng 20 in
          let m = m_wide in
          match Cs.walk_bits m bits with
          | Cs.Hit { level; _ } ->
            Ctg_bigint.Zint.sign (Gap.gap m bits level) < 0
            && (level = 0
               || Ctg_bigint.Zint.sign (Gap.gap m bits (level - 1)) >= 0)
          | Cs.Exhausted ->
            Ctg_bigint.Zint.sign (Gap.gap m bits (Array.length bits - 1)) >= 0);
    ]

let () =
  Alcotest.run "kyao" [ ("unit", unit_tests); ("properties", prop_tests) ]

(* The static analyzer: the BDD engine itself against brute force, the
   symbolic program evaluation against the concrete interpreter, the
   equivalence/one-hot proofs against truth-table enumeration, and the
   negative paths — mutants and malformed programs the passes must
   reject.  The BDD proofs cover all 2^n inputs, so the brute-force
   cross-checks here are what grounds trust in the prover. *)

module Gate = Ctgauss.Gate
module Bitslice = Ctgauss.Bitslice
module Sublist = Ctgauss.Sublist
module Compile = Ctgauss.Compile
module Compile_simple = Ctgauss.Compile_simple
module Matrix = Ctg_kyao.Matrix
module Le = Ctg_kyao.Leaf_enum
module Bdd = Ctg_analysis.Bdd
module Equiv = Ctg_analysis.Equiv
module Taint = Ctg_analysis.Taint
module Lint = Ctg_analysis.Lint
module Budget = Ctg_analysis.Budget
module Analyze = Ctg_analysis.Analyze
module Jsonx = Ctg_obs.Jsonx
module Report = Ctg_analysis.Report

let enum_of ?(tail_cut = 13) sigma precision =
  Le.enumerate (Matrix.create ~sigma ~precision ~tail_cut)

let bits_of_int n x = Array.init n (fun i -> x lsr i land 1 = 1)

(* ------------------------------------------------------------------ *)
(* BDD engine vs. brute force on random expressions.                   *)

let bdd_tests =
  [
    Alcotest.test_case "terminals and variables" `Quick (fun () ->
        let man = Bdd.create ~num_vars:4 in
        Alcotest.(check bool) "zero" true (Bdd.is_zero Bdd.zero);
        Alcotest.(check bool) "one" true (Bdd.is_one Bdd.one);
        let x = Bdd.var man 2 in
        Alcotest.(check bool) "x(1)" true
          (Bdd.eval man x [| false; false; true; false |]);
        Alcotest.(check bool) "x(0)" false
          (Bdd.eval man x [| true; true; false; true |]));
    Alcotest.test_case "random expressions vs truth tables" `Quick (fun () ->
        (* Build the same random expression as a BDD and as a bitmask
           truth table over n variables; they must agree pointwise. *)
        (* Truth tables are int bitmasks over 2^n minterms, so n <= 5 on
           a 63-bit OCaml int. *)
        let n = 5 in
        let rng = Ctg_prng.Splitmix64.create 0x5eedL in
        let man = Bdd.create ~num_vars:n in
        let full = (1 lsl (1 lsl n)) - 1 in
        (* truth table of variable i: bit m is m>>i land 1 *)
        let var_tt i =
          let t = ref 0 in
          for m = 0 to (1 lsl n) - 1 do
            if m lsr i land 1 = 1 then t := !t lor (1 lsl m)
          done;
          !t
        in
        for _trial = 1 to 50 do
          let pool = ref [] in
          for i = 0 to n - 1 do
            pool := (Bdd.var man i, var_tt i) :: !pool
          done;
          for _step = 1 to 25 do
            let pick () =
              List.nth !pool
                (Ctg_prng.Splitmix64.next_int rng (List.length !pool))
            in
            let a, ta = pick () and b, tb = pick () in
            let node =
              match Ctg_prng.Splitmix64.next_int rng 4 with
              | 0 -> (Bdd.band man a b, ta land tb)
              | 1 -> (Bdd.bor man a b, ta lor tb)
              | 2 -> (Bdd.bxor man a b, ta lxor tb)
              | _ -> (Bdd.bnot man a, lnot ta land full)
            in
            pool := node :: !pool
          done;
          List.iter
            (fun (f, tt) ->
              (* Handle equality must match truth-table equality against
                 every other pool member (hash-consing canonicity). *)
              for m = 0 to (1 lsl n) - 1 do
                let want = tt lsr m land 1 = 1 in
                if Bdd.eval man f (bits_of_int n m) <> want then
                  Alcotest.failf "eval mismatch at minterm %d" m
              done;
              let cnt = int_of_float (Bdd.sat_count man f) in
              let brute = Ctg_util.Bits.popcount tt in
              Alcotest.(check int) "sat_count" brute cnt;
              match Bdd.any_sat man f with
              | None -> Alcotest.(check int) "unsat iff tt=0" 0 tt
              | Some a ->
                Alcotest.(check bool) "witness satisfies" true
                  (Bdd.eval man f a))
            !pool
        done);
    Alcotest.test_case "hash-consing canonicity" `Quick (fun () ->
        let man = Bdd.create ~num_vars:3 in
        let x = Bdd.var man 0 and y = Bdd.var man 1 in
        (* De Morgan: ~(x & y) = ~x | ~y, as handle equality. *)
        let lhs = Bdd.bnot man (Bdd.band man x y) in
        let rhs = Bdd.bor man (Bdd.bnot man x) (Bdd.bnot man y) in
        Alcotest.(check bool) "de morgan" true (Bdd.equal lhs rhs);
        let xx = Bdd.bxor man x x in
        Alcotest.(check bool) "x^x = 0" true (Bdd.is_zero xx));
  ]

(* ------------------------------------------------------------------ *)
(* Symbolic program evaluation vs. the concrete interpreter.           *)

let exhaustive_agree man p (outs, valid) =
  let n = p.Gate.num_vars in
  for m = 0 to (1 lsl n) - 1 do
    let bits = bits_of_int n m in
    let mag, ok = Bitslice.eval_single p bits in
    (match valid with
    | Some v ->
      if Bdd.eval man v bits <> ok then
        Alcotest.failf "valid mismatch at input %d" m
    | None -> ());
    Array.iteri
      (fun i f ->
        let want = mag lsr i land 1 = 1 in
        if Bdd.eval man f bits <> want then
          Alcotest.failf "output %d mismatch at input %d" i m)
      outs
  done

let symbolic_tests =
  [
    Alcotest.test_case "program_bdds == eval_single (sigma=1 n=8)" `Quick
      (fun () ->
        let enum = enum_of "1" 8 in
        let p = Compile.compile (Sublist.build enum) in
        let man = Bdd.create ~num_vars:p.Gate.num_vars in
        exhaustive_agree man p (Equiv.program_bdds man p));
    Alcotest.test_case "program_bdds == eval_single (simple, sigma=2 n=9)"
      `Quick (fun () ->
        let enum = enum_of "2" 9 in
        let p = Compile_simple.compile enum in
        let man = Bdd.create ~num_vars:p.Gate.num_vars in
        exhaustive_agree man p (Equiv.program_bdds man p));
  ]

(* ------------------------------------------------------------------ *)
(* Equivalence proofs vs. brute-force truth-table enumeration, over    *)
(* the full option matrix.                                             *)

let brute_equivalent a b =
  (* Ground truth for Equiv.equivalent at small n: enumerate all
     strings; valid flags must agree everywhere, outputs wherever valid
     holds. *)
  let n = max a.Gate.num_vars b.Gate.num_vars in
  let pad p bits = Array.sub bits 0 p.Gate.num_vars in
  let ok = ref true in
  for m = 0 to (1 lsl n) - 1 do
    let bits = bits_of_int n m in
    let ma, va = Bitslice.eval_single a (pad a bits) in
    let mb, vb = Bitslice.eval_single b (pad b bits) in
    if va <> vb then ok := false;
    if va && vb && ma <> mb then ok := false
  done;
  !ok

let option_labels =
  List.map
    (fun (opts, label) -> (opts, label))
    [
      (Compile.default_options, "default");
      ({ Compile.default_options with share_selectors = false }, "noshare");
      ({ Compile.default_options with exact_minimize = false }, "greedy");
      ({ Compile.default_options with flatten_onehot = false }, "nested");
      ( {
          Compile.default_options with
          share_selectors = false;
          exact_minimize = false;
          flatten_onehot = false;
        },
        "all-off" );
    ]

let equiv_tests =
  [
    Alcotest.test_case "all option combos == simple (BDD and brute)" `Quick
      (fun () ->
        let enum = enum_of "2" 10 in
        let simple = Compile_simple.compile enum in
        let sublists = Sublist.build enum in
        let man = Bdd.create ~num_vars:10 in
        List.iter
          (fun (options, label) ->
            let p = Compile.compile ~options sublists in
            let v = Equiv.equivalent man p simple in
            Alcotest.(check bool)
              (label ^ ": valid_equal") true v.Equiv.valid_equal;
            Alcotest.(check bool)
              (label ^ ": outputs_equal_on_valid")
              true v.Equiv.outputs_equal_on_valid;
            Alcotest.(check bool)
              (label ^ ": matches brute force") true (brute_equivalent p simple))
          option_labels);
    Alcotest.test_case "mutant is refuted with a counterexample" `Quick
      (fun () ->
        let enum = enum_of "1" 8 in
        let p = Compile.compile (Sublist.build enum) in
        (* Flip one live AND to OR: the programs must no longer be
           equivalent, and the counterexample must actually witness the
           disagreement. *)
        let taint = Taint.analyze p in
        let live = Taint.live taint in
        let idx = ref (-1) in
        Array.iteri
          (fun i instr ->
            if !idx < 0 && live.(i) then
              match instr with Gate.And (a, b) when a <> b -> idx := i | _ -> ())
          p.Gate.instrs;
        if !idx < 0 then Alcotest.fail "no live AND gate to mutate";
        let instrs = Array.copy p.Gate.instrs in
        (match instrs.(!idx) with
        | Gate.And (a, b) -> instrs.(!idx) <- Gate.Or (a, b)
        | _ -> assert false);
        let mutant =
          match
            Gate.make ~num_vars:p.Gate.num_vars ~instrs ~outputs:p.Gate.outputs
              ~valid:p.Gate.valid
          with
          | Ok m -> m
          | Error e -> Alcotest.failf "mutant should validate: %s" e
        in
        let man = Bdd.create ~num_vars:p.Gate.num_vars in
        let v = Equiv.equivalent man p mutant in
        Alcotest.(check bool)
          "mutant detected" false
          (v.Equiv.valid_equal && v.Equiv.outputs_equal_on_valid);
        match v.Equiv.counterexample with
        | None -> Alcotest.fail "expected a counterexample"
        | Some bits ->
          let bits_a = Array.sub bits 0 p.Gate.num_vars in
          let ma, va = Bitslice.eval_single p bits_a in
          let mb, vb = Bitslice.eval_single mutant bits_a in
          Alcotest.(check bool)
            "counterexample witnesses disagreement" true
            (va <> vb || (va && ma <> mb)));
    Alcotest.test_case "selectors one-hot + exhaustive (sigma=2 n=10)" `Quick
      (fun () ->
        let enum = enum_of "2" 10 in
        let sublists = Sublist.build enum in
        let p = Compile.compile sublists in
        let man = Bdd.create ~num_vars:10 in
        let _, valid = Equiv.program_bdds man p in
        let valid = Option.get valid in
        let sv =
          Equiv.selectors_one_hot man
            ~num_entries:(Array.length sublists.Sublist.entries)
            ~valid
        in
        Alcotest.(check bool) "one-hot" true sv.Equiv.one_hot;
        Alcotest.(check bool) "exhaustive" true sv.Equiv.exhaustive_on_valid;
        (* Brute-force the same two facts. *)
        let n = 10 in
        let k = Array.length sublists.Sublist.entries in
        for m = 0 to (1 lsl n) - 1 do
          let bits = bits_of_int n m in
          let sel kappa =
            (* c_k = b_0 & ... & b_{k-1} & ~b_k *)
            let prefix = ref true in
            for i = 0 to kappa - 1 do
              if not bits.(i) then prefix := false
            done;
            !prefix && kappa < n && not bits.(kappa)
          in
          let fired = ref 0 in
          for kappa = 0 to k - 1 do
            if sel kappa then incr fired
          done;
          if !fired > 1 then Alcotest.failf "not one-hot at input %d" m;
          let _, valid_here = Bitslice.eval_single p bits in
          if valid_here && !fired = 0 then
            Alcotest.failf "terminating string %d claimed by no selector" m
        done);
  ]

(* ------------------------------------------------------------------ *)
(* validate/make negative paths and taint facts.                       *)

let mk ~num_vars ~instrs ~outputs ~valid =
  Gate.make ~num_vars ~instrs ~outputs ~valid

let structure_tests =
  [
    Alcotest.test_case "make rejects forward references" `Quick (fun () ->
        (* Instruction 0 reads register num_vars+1, defined by
           instruction 1: a forward reference. *)
        let r =
          mk ~num_vars:2
            ~instrs:[| Gate.And (0, 3); Gate.Not 1 |]
            ~outputs:[| 2 |] ~valid:None
        in
        Alcotest.(check bool) "rejected" true (Result.is_error r));
    Alcotest.test_case "make rejects out-of-range outputs" `Quick (fun () ->
        let r =
          mk ~num_vars:2 ~instrs:[| Gate.And (0, 1) |] ~outputs:[| 7 |]
            ~valid:None
        in
        Alcotest.(check bool) "rejected" true (Result.is_error r));
    Alcotest.test_case "make rejects negative operands and bad valid" `Quick
      (fun () ->
        let r =
          mk ~num_vars:2 ~instrs:[| Gate.Not (-1) |] ~outputs:[| 2 |]
            ~valid:None
        in
        Alcotest.(check bool) "negative operand" true (Result.is_error r);
        let r =
          mk ~num_vars:2 ~instrs:[| Gate.Not 0 |] ~outputs:[| 2 |]
            ~valid:(Some 99)
        in
        Alcotest.(check bool) "bad valid sink" true (Result.is_error r));
    Alcotest.test_case "make accepts a well-formed program" `Quick (fun () ->
        let r =
          mk ~num_vars:2
            ~instrs:[| Gate.And (0, 1); Gate.Not 2 |]
            ~outputs:[| 3 |] ~valid:(Some 2)
        in
        Alcotest.(check bool) "accepted" true (Result.is_ok r));
    Alcotest.test_case "taint finds dead gates, prune removes them" `Quick
      (fun () ->
        (* Instruction 1 (Xor) reaches nothing. *)
        let p =
          match
            mk ~num_vars:2
              ~instrs:[| Gate.And (0, 1); Gate.Xor (0, 1); Gate.Not 2 |]
              ~outputs:[| 4 |] ~valid:None
          with
          | Ok p -> p
          | Error e -> Alcotest.failf "should validate: %s" e
        in
        let t = Taint.analyze p in
        Alcotest.(check (list int)) "dead instr" [ 1 ] (Taint.dead_instrs t);
        let pruned = Gate.prune p in
        Alcotest.(check int) "pruned count" 2 (Array.length pruned.Gate.instrs);
        Alcotest.(check (list int))
          "pruned is clean" []
          (Taint.dead_instrs (Taint.analyze pruned));
        (* Same function after renumbering. *)
        for m = 0 to 3 do
          let bits = bits_of_int 2 m in
          Alcotest.(check int)
            "semantics preserved"
            (fst (Bitslice.eval_single p bits))
            (fst (Bitslice.eval_single pruned bits))
        done);
    Alcotest.test_case "lint flags the dead gate, clean on default compile"
      `Quick (fun () ->
        let dirty =
          match
            mk ~num_vars:2
              ~instrs:[| Gate.And (0, 1); Gate.Xor (0, 1) |]
              ~outputs:[| 2 |] ~valid:None
          with
          | Ok p -> p
          | Error e -> Alcotest.failf "should validate: %s" e
        in
        let findings = Lint.lint ~name:"dirty" dirty in
        Alcotest.(check bool)
          "dead-gate fires" true
          (List.exists (fun f -> f.Report.rule = "dead-gate") findings);
        let enum = enum_of "2" 10 in
        let p = Compile.compile (Sublist.build enum) in
        let clean = Lint.lint ~name:"clean" p in
        Alcotest.(check (list string))
          "default compile lint-clean (no CI-failing findings)" []
          (List.filter Report.fails_ci clean
          |> List.map (fun f -> f.Report.rule)));
    Alcotest.test_case "taint census matches gate kinds" `Quick (fun () ->
        let p =
          match
            mk ~num_vars:3
              ~instrs:
                [| Gate.And (0, 1); Gate.Or (3, 2); Gate.Not 4; Gate.Xor (5, 0) |]
              ~outputs:[| 6 |] ~valid:None
          with
          | Ok p -> p
          | Error e -> Alcotest.failf "should validate: %s" e
        in
        let c = Taint.census (Taint.analyze p) in
        Alcotest.(check int) "ands" 1 c.Taint.ands;
        Alcotest.(check int) "ors" 1 c.Taint.ors;
        Alcotest.(check int) "xors" 1 c.Taint.xors;
        Alcotest.(check int) "nots" 1 c.Taint.nots);
  ]

(* ------------------------------------------------------------------ *)
(* Budget baseline: JSON roundtrip and regression detection.           *)

let budget_tests =
  [
    Alcotest.test_case "json roundtrip" `Quick (fun () ->
        let b =
          {
            Budget.entries =
              [
                {
                  Budget.sigma = "2";
                  precision = 16;
                  tail_cut = 13;
                  gates = 154;
                  depth = 15;
                  simple_gates = 159;
                };
              ];
          }
        in
        match Budget.of_json (Budget.to_json b) with
        | Error e -> Alcotest.failf "roundtrip: %s" e
        | Ok b' -> Alcotest.(check bool) "equal" true (b = b'));
    Alcotest.test_case "parse of pretty output" `Quick (fun () ->
        let b =
          {
            Budget.entries =
              [
                {
                  Budget.sigma = "6.15543";
                  precision = 16;
                  tail_cut = 13;
                  gates = 452;
                  depth = 17;
                  simple_gates = 573;
                };
              ];
          }
        in
        let s = Jsonx.pretty (Budget.to_json b) in
        match Jsonx.parse s with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok j -> (
          match Budget.of_json j with
          | Error e -> Alcotest.failf "of_json: %s" e
          | Ok b' -> Alcotest.(check bool) "equal" true (b = b')));
    Alcotest.test_case "regression detection" `Quick (fun () ->
        let base =
          {
            Budget.sigma = "2";
            precision = 16;
            tail_cut = 13;
            gates = 150;
            depth = 15;
            simple_gates = 159;
          }
        in
        let measured = { base with Budget.gates = 154 } in
        let findings = Budget.check ~baseline:base measured in
        Alcotest.(check bool)
          "regression is an error" true
          (List.exists
             (fun f ->
               f.Report.rule = "gate-budget" && f.Report.severity = Report.Error)
             findings);
        (* Exact match: no findings at all. *)
        Alcotest.(check int)
          "exact match clean" 0
          (List.length (Budget.check ~baseline:base base));
        (* Improvement: informational only. *)
        let better = { base with Budget.gates = 140 } in
        let findings = Budget.check ~baseline:base better in
        Alcotest.(check bool)
          "improvement does not fail CI" false
          (List.exists Report.fails_ci findings));
    Alcotest.test_case "analyze run: proofs hold at small precision" `Quick
      (fun () ->
        let r =
          Analyze.run { Analyze.sigma = "2"; precision = 10; tail_cut = 13 }
        in
        Alcotest.(check bool) "ok" true (Analyze.ok r);
        Alcotest.(check bool)
          "has equivalence proofs" true
          (List.length r.Analyze.proofs >= 4);
        List.iter
          (fun p ->
            if not p.Report.holds then
              Alcotest.failf "proof %s failed: %s" p.Report.name
                p.Report.evidence)
          r.Analyze.proofs);
  ]

(* ------------------------------------------------------------------ *)
(* DOT emission: deterministic and escaped.                            *)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let dot_tests =
  [
    Alcotest.test_case "to_dot is deterministic" `Quick (fun () ->
        let enum = enum_of "2" 10 in
        let p = Compile.compile (Sublist.build enum) in
        let a = Ctgauss.Codegen.to_dot ~name:"sampler" p in
        let b = Ctgauss.Codegen.to_dot ~name:"sampler" p in
        Alcotest.(check string) "same program, same text" a b);
    Alcotest.test_case "to_dot escapes the graph name" `Quick (fun () ->
        let p =
          match
            mk ~num_vars:1 ~instrs:[| Gate.Not 0 |] ~outputs:[| 1 |] ~valid:None
          with
          | Ok p -> p
          | Error e -> Alcotest.failf "should validate: %s" e
        in
        let dot = Ctgauss.Codegen.to_dot ~name:{|bad"name\with
newline|} p in
        Alcotest.(check bool) "escaped quote" true (contains_sub dot {|\"|});
        Alcotest.(check bool)
          "no raw newline inside quoted name" false
          (contains_sub dot "bad\"name"));
  ]

let () =
  Alcotest.run "analysis"
    [
      ("bdd", bdd_tests);
      ("symbolic", symbolic_tests);
      ("equiv", equiv_tests);
      ("structure", structure_tests);
      ("budget", budget_tests);
      ("dot", dot_tests);
    ]

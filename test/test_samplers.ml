(* CDT baseline samplers: table construction, comparison primitives, and
   the guarantee that all four samplers draw from the same distribution. *)

module Table = Ctg_samplers.Cdt_table
module Cdt = Ctg_samplers.Cdt_samplers
module Sig = Ctg_samplers.Sampler_sig
module Matrix = Ctg_kyao.Matrix
module Bs = Ctg_prng.Bitstream

let m = Matrix.create ~sigma:"2" ~precision:24 ~tail_cut:13
let table = Table.of_matrix m

let table_tests =
  [
    Alcotest.test_case "size and width" `Quick (fun () ->
        Alcotest.(check int) "entries" 27 (Table.size table);
        Alcotest.(check int) "bytes" 3 (Table.entry_bytes table));
    Alcotest.test_case "CDF is monotone" `Quick (fun () ->
        for v = 0 to Table.size table - 2 do
          let lt, _ = Table.lt_early_exit (Table.cdf table v) (Table.cdf table (v + 1)) in
          let eq = Bytes.equal (Table.cdf table v) (Table.cdf table (v + 1)) in
          Alcotest.(check bool) (Printf.sprintf "cdf %d <= cdf %d" v (v + 1)) true (lt || eq)
        done);
    Alcotest.test_case "last entry is nearly full" `Quick (fun () ->
        let top = Table.cdf table (Table.size table - 1) in
        (* Residual < support+1 out of 2^24, so the top byte is 0xff. *)
        Alcotest.(check int) "top byte" 0xff (Char.code (Bytes.get top 0)));
    Alcotest.test_case "ct compare agrees with early-exit compare" `Quick
      (fun () ->
        let rng = Ctg_prng.Splitmix64.create 99L in
        for _ = 1 to 2000 do
          let mk () =
            Bytes.init 3 (fun _ -> Char.chr (Ctg_prng.Splitmix64.next_int rng 256))
          in
          let a = mk () and b = mk () in
          let r1, _ = Table.lt_early_exit a b in
          let r2, ops = Table.lt_ct a b in
          Alcotest.(check bool) "same predicate" r1 r2;
          Alcotest.(check int) "constant ops" 3 ops
        done);
    Alcotest.test_case "ct compare equals byte order" `Quick (fun () ->
        let a = Bytes.of_string "\x01\xff\xff" and b = Bytes.of_string "\x02\x00\x00" in
        Alcotest.(check bool) "a < b" true (fst (Table.lt_ct a b));
        Alcotest.(check bool) "not b < a" false (fst (Table.lt_ct b a));
        Alcotest.(check bool) "not a < a" false (fst (Table.lt_ct a a)));
  ]

let instances () =
  [
    Cdt.binary_search table;
    Cdt.byte_scan table;
    Cdt.linear_ct table;
    Sig.knuth_yao_reference m;
  ]

let sampler_tests =
  [
    Alcotest.test_case "all CDT variants agree sample-for-sample" `Quick
      (fun () ->
        (* Same PRNG bytes, same algorithmic answer. *)
        let a = Cdt.binary_search table and b = Cdt.byte_scan table in
        let c = Cdt.linear_ct table in
        let mk () = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "agree") in
        let ra = mk () and rb = mk () and rc = mk () in
        for _ = 1 to 3000 do
          let va = a.Sig.sample_magnitude ra in
          let vb = b.Sig.sample_magnitude rb in
          let vc = c.Sig.sample_magnitude rc in
          Alcotest.(check int) "binary=byte" va vb;
          Alcotest.(check int) "binary=linear" va vc
        done);
    Alcotest.test_case "linear CT scan cost is input-independent" `Quick
      (fun () ->
        let inst = Cdt.linear_ct table in
        let bs = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "ops") in
        let costs = Hashtbl.create 4 in
        for _ = 1 to 1000 do
          let _, ops = inst.Sig.sample_traced bs in
          Hashtbl.replace costs ops ()
        done;
        (* All traces identical (up to the astronomically-rare redraw). *)
        Alcotest.(check int) "single cost" 1 (Hashtbl.length costs));
    Alcotest.test_case "byte-scan cost varies with the draw" `Quick (fun () ->
        let inst = Cdt.byte_scan table in
        let bs = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "varies") in
        let costs = Hashtbl.create 16 in
        for _ = 1 to 1000 do
          let _, ops = inst.Sig.sample_traced bs in
          Hashtbl.replace costs ops ()
        done;
        Alcotest.(check bool) "several costs" true (Hashtbl.length costs > 3));
    Alcotest.test_case "constant_time flags match the paper" `Quick (fun () ->
        List.iter
          (fun (inst : Sig.instance) ->
            let expect =
              match inst.Sig.name with
              | "cdt-linear-ct" -> true
              | _ -> false
            in
            Alcotest.(check bool) inst.Sig.name expect inst.Sig.constant_time)
          (instances ()));
    Alcotest.test_case "signed wrapper is symmetric" `Quick (fun () ->
        let inst = Cdt.byte_scan table in
        let bs = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "sign") in
        let pos = ref 0 and neg = ref 0 in
        for _ = 1 to 30_000 do
          let v = Sig.sample_signed inst bs in
          if v > 0 then incr pos else if v < 0 then incr neg
        done;
        let ratio = float_of_int !pos /. float_of_int !neg in
        Alcotest.(check bool) "balanced" true (ratio > 0.93 && ratio < 1.07));
    Alcotest.test_case "every sampler matches exact probabilities" `Slow
      (fun () ->
        let exact = Ctg_stats.Distance.exact_probabilities m in
        List.iter
          (fun (inst : Sig.instance) ->
            let bs = Bs.of_chacha (Ctg_prng.Chacha20.of_seed inst.Sig.name) in
            let trials = 40_000 in
            let counts = Array.make (m.Matrix.support + 1) 0 in
            for _ = 1 to trials do
              let v = inst.Sig.sample_magnitude bs in
              counts.(v) <- counts.(v) + 1
            done;
            let r =
              Ctg_stats.Chi_square.test ~observed:counts
                ~expected:(Array.map (fun p -> p *. float_of_int trials) exact)
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s p=%.4f" inst.Sig.name r.Ctg_stats.Chi_square.p_value)
              true
              (r.Ctg_stats.Chi_square.p_value > 0.001))
          (instances ()));
    Alcotest.test_case "bitsliced wrapper agrees with its sampler" `Quick
      (fun () ->
        let enum = Ctg_kyao.Leaf_enum.enumerate m in
        let s = Ctgauss.Sampler.of_enum enum in
        let inst = Sig.of_bitsliced s in
        let bs = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "wrap") in
        for _ = 1 to 100 do
          let v = inst.Sig.sample_magnitude bs in
          Alcotest.(check bool) "in support" true (v >= 0 && v <= m.Matrix.support)
        done);
    Alcotest.test_case "zoo: unique names, CT claims, serving kernel" `Quick
      (fun () ->
        let s =
          Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma:"2"
            ~precision:128 ~tail_cut:13 ()
        in
        let zoo = Cdt.zoo s in
        let names = List.map (fun (i : Sig.instance) -> i.Sig.name) zoo in
        Alcotest.(check int) "names unique" (List.length names)
          (List.length (List.sort_uniq compare names));
        Alcotest.(check (list string)) "claim constant time"
          [ "bitsliced(2)"; "cdt-linear-ct" ]
          (List.filter_map
             (fun (i : Sig.instance) ->
               if i.Sig.constant_time then Some i.Sig.name else None)
             zoo);
        let clone = Ctgauss.Sampler.clone s in
        Alcotest.(check bool) "kernel bound" true (Ctgauss.Sampler.has_kernel clone);
        let bitsliced = List.hd zoo in
        let rng () = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "zoo") in
        let r = rng () in
        let drawn = Array.init 63 (fun _ -> Sig.sample_signed bitsliced r) in
        Alcotest.(check (array int)) "one batch of the kernel-bound clone"
          (Ctgauss.Sampler.batch_signed clone (rng ()))
          drawn);
    Alcotest.test_case "branch-free sign = branching sign, every zoo sampler"
      `Quick (fun () ->
        (* Two independent zoos over one program, so no instance's
           buffered batch leaks from one run into the other. *)
        let s = Ctgauss.Sampler.create ~sigma:"2" ~precision:64 ~tail_cut:13 () in
        let run zoo draw =
          List.map
            (fun inst ->
              let r = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "sign-bit") in
              let v = Array.init 100_000 (fun _ -> draw inst r) in
              (v, Bs.bits_consumed r))
            zoo
        in
        let branching (inst : Sig.instance) r =
          let m = inst.Sig.sample_magnitude r in
          if Bs.next_bit r = 1 then -m else m
        in
        List.iter2
          (fun (inst : Sig.instance) ((v, bits), (v', bits')) ->
            Alcotest.(check (array int)) inst.Sig.name v' v;
            Alcotest.(check int) (inst.Sig.name ^ " bits") bits' bits)
          (Cdt.zoo s)
          (List.combine
             (run (Cdt.zoo s) Sig.sample_signed)
             (run (Cdt.zoo s) branching)));
  ]

let convolution_tests =
  [
    Alcotest.test_case "effective sigma formula" `Quick (fun () ->
        let base = Ctgauss.Sampler.of_enum (Ctg_kyao.Leaf_enum.enumerate m) in
        let c = Ctg_samplers.Convolution.create ~base ~k:3 ~levels:2 in
        Alcotest.(check (float 1e-9)) "sigma" (2.0 *. 10.0)
          (Ctg_samplers.Convolution.sigma_effective c);
        Alcotest.(check int) "4 base samples" 4
          (Ctg_samplers.Convolution.base_samples_per_output c));
    Alcotest.test_case "empirical sigma matches" `Slow (fun () ->
        let base = Ctgauss.Sampler.of_enum (Ctg_kyao.Leaf_enum.enumerate m) in
        let c = Ctg_samplers.Convolution.create ~base ~k:4 ~levels:1 in
        let rng = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "conv-test") in
        let mom = Ctg_stats.Moments.create () in
        for _ = 1 to 60_000 do
          Ctg_stats.Moments.add mom
            (float_of_int (Ctg_samplers.Convolution.sample c rng))
        done;
        let target = Ctg_samplers.Convolution.sigma_effective c in
        let ratio = Ctg_stats.Moments.std_dev mom /. target in
        Alcotest.(check bool)
          (Printf.sprintf "std ratio %.3f" ratio)
          true
          (ratio > 0.98 && ratio < 1.02);
        Alcotest.(check bool) "mean near zero" true
          (abs_float (Ctg_stats.Moments.mean mom) < 0.2));
    Alcotest.test_case "rejects bad parameters" `Quick (fun () ->
        let base = Ctgauss.Sampler.of_enum (Ctg_kyao.Leaf_enum.enumerate m) in
        Alcotest.check_raises "k=0" (Invalid_argument "Convolution.create")
          (fun () ->
            ignore (Ctg_samplers.Convolution.create ~base ~k:0 ~levels:1)));
  ]

let rejection_tests =
  [
    Alcotest.test_case "acceptance rate is sane" `Quick (fun () ->
        let rate = Ctg_samplers.Rejection.acceptance_rate m in
        Alcotest.(check bool)
          (Printf.sprintf "rate %.3f" rate)
          true
          (rate > 0.02 && rate < 0.5));
    Alcotest.test_case "distribution matches the table" `Slow (fun () ->
        let inst = Ctg_samplers.Rejection.create m in
        let rng = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "rejection-test") in
        let trials = 50_000 in
        let counts = Array.make (m.Matrix.support + 1) 0 in
        for _ = 1 to trials do
          let v = inst.Sig.sample_magnitude rng in
          counts.(v) <- counts.(v) + 1
        done;
        let exact = Ctg_stats.Distance.exact_probabilities m in
        let r =
          Ctg_stats.Chi_square.test ~observed:counts
            ~expected:(Array.map (fun p -> p *. float_of_int trials) exact)
        in
        Alcotest.(check bool)
          (Printf.sprintf "p=%.4f" r.Ctg_stats.Chi_square.p_value)
          true
          (r.Ctg_stats.Chi_square.p_value > 0.001));
    Alcotest.test_case "iteration count varies (non-CT by nature)" `Quick
      (fun () ->
        let inst = Ctg_samplers.Rejection.create m in
        let rng = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "rej-trace") in
        let seen = Hashtbl.create 8 in
        for _ = 1 to 500 do
          Hashtbl.replace seen (snd (inst.Sig.sample_traced rng)) ()
        done;
        Alcotest.(check bool) "many iteration counts" true (Hashtbl.length seen > 3));
  ]

let () =
  Alcotest.run "samplers"
    [
      ("cdt-table", table_tests);
      ("samplers", sampler_tests);
      ("convolution", convolution_tests);
      ("rejection", rejection_tests);
    ]

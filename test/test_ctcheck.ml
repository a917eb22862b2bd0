(* dudect harness: it must flag a deliberately leaky function and pass a
   constant-cost one — the paper's Sec. 5.2 validation, on op counts. *)

module Dudect = Ctg_ctcheck.Dudect

let config = { Dudect.default_config with measurements = 8_000 }

let tests =
  [
    Alcotest.test_case "constant function is not flagged" `Quick (fun () ->
        let r = Dudect.test_ops ~config (fun _ -> 42) in
        Alcotest.(check bool) "no leak" false r.Dudect.leaky;
        Alcotest.(check bool) "t small" true (abs_float r.Dudect.t_statistic < 4.5));
    Alcotest.test_case "class-dependent cost is flagged" `Quick (fun () ->
        let rng = Ctg_prng.Splitmix64.create 7L in
        let f = function
          | Dudect.Fix -> 100 + Ctg_prng.Splitmix64.next_int rng 5
          | Dudect.Random -> 103 + Ctg_prng.Splitmix64.next_int rng 5
        in
        let r = Dudect.test_ops ~config f in
        Alcotest.(check bool) "leak" true r.Dudect.leaky);
    Alcotest.test_case "noisy but identical cost passes" `Quick (fun () ->
        let rng = Ctg_prng.Splitmix64.create 8L in
        let f _ = Ctg_prng.Splitmix64.next_int rng 1000 in
        let r = Dudect.test_ops ~config f in
        Alcotest.(check bool) "no leak" false r.Dudect.leaky);
    Alcotest.test_case "report fields are populated" `Quick (fun () ->
        let r = Dudect.test_ops ~config (fun _ -> 5) in
        Alcotest.(check bool) "samples" true (r.Dudect.samples_per_class > 1000);
        Alcotest.(check (float 1e-9)) "mean fix" 5.0 r.Dudect.mean_fix;
        Alcotest.(check (float 1e-9)) "mean random" 5.0 r.Dudect.mean_random);
    Alcotest.test_case "byte-scan CDT op-trace leaks" `Quick (fun () ->
        let m = Ctg_kyao.Matrix.create ~sigma:"2" ~precision:24 ~tail_cut:13 in
        let table = Ctg_samplers.Cdt_table.of_matrix m in
        let inst = Ctg_samplers.Cdt_samplers.byte_scan table in
        (* Fix class: PRNG rigged to emit zero bytes => draw 0 => one
           compare; random class: true uniform draws. *)
        let zero = Ctg_prng.Bitstream.of_bits (Array.make 2_000_000 false) in
        let rnd = Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed "leak") in
        let f clazz =
          let bs = match clazz with Dudect.Fix -> zero | Dudect.Random -> rnd in
          snd (inst.Ctg_samplers.Sampler_sig.sample_traced bs)
        in
        let r = Dudect.test_ops ~config:{ config with measurements = 2_000 } f in
        Alcotest.(check bool) "leaky" true r.Dudect.leaky);
    Alcotest.test_case "linear CT CDT op-trace does not leak" `Quick (fun () ->
        let m = Ctg_kyao.Matrix.create ~sigma:"2" ~precision:24 ~tail_cut:13 in
        let table = Ctg_samplers.Cdt_table.of_matrix m in
        let inst = Ctg_samplers.Cdt_samplers.linear_ct table in
        let zero = Ctg_prng.Bitstream.of_bits (Array.make 2_000_000 false) in
        let rnd = Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed "ct") in
        let f clazz =
          let bs = match clazz with Dudect.Fix -> zero | Dudect.Random -> rnd in
          snd (inst.Ctg_samplers.Sampler_sig.sample_traced bs)
        in
        let r = Dudect.test_ops ~config:{ config with measurements = 2_000 } f in
        Alcotest.(check bool) "constant" false r.Dudect.leaky);
  ]

(* The bitsliced trace is the bits one whole batch draws, and the
   Knuth-Yao reference is the non-CT control: the fix class of each is
   one call on an all-zero stream rebuilt for the call. *)
let audit (inst : Ctg_samplers.Sampler_sig.instance) =
  let rnd =
    Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed "ctcheck-rnd")
  in
  let f clazz =
    let bs =
      match clazz with
      | Dudect.Fix -> Ctg_prng.Bitstream.of_byte_fn (fun () -> 0)
      | Dudect.Random -> rnd
    in
    snd (inst.Ctg_samplers.Sampler_sig.sample_traced bs)
  in
  Dudect.test_ops ~config:{ config with measurements = 2_000 } f

let registry_instance ~sigma ~precision =
  Ctg_samplers.Sampler_sig.of_bitsliced
    (Ctgauss.Sampler.clone
       (Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma
          ~precision ~tail_cut:13 ()))

let sampler_tests =
  [
    Alcotest.test_case "knuth-yao-ref bit trace is flagged" `Quick (fun () ->
        let m = Ctg_kyao.Matrix.create ~sigma:"2" ~precision:16 ~tail_cut:13 in
        let r = audit (Ctg_samplers.Sampler_sig.knuth_yao_reference m) in
        Alcotest.(check bool) "reference walk is flagged" true r.Dudect.leaky);
    Alcotest.test_case "bitsliced batch bits: 2/128 is clean" `Quick
      (fun () ->
        let r = audit (registry_instance ~sigma:"2" ~precision:128) in
        Alcotest.(check bool) "clean" false r.Dudect.leaky;
        (* 128 input words of 64 drawn bits each, the same every batch. *)
        Alcotest.(check (float 0.)) "bits per batch" 8192. r.Dudect.mean_fix;
        Alcotest.(check (float 0.)) "same on random input" 8192.
          r.Dudect.mean_random);
    Alcotest.test_case "bitsliced batch bits: 215/16 flagged" `Quick
      (fun () ->
        (* About a third of sigma=215/16 batches rescue a lane with the
           scalar walk, which draws extra bits: the trace must show it. *)
        let r = audit (registry_instance ~sigma:"215" ~precision:16) in
        Alcotest.(check bool) "flagged" true r.Dudect.leaky;
        Alcotest.(check bool) "random batches draw more" true
          (r.Dudect.mean_random > r.Dudect.mean_fix));
  ]

(* The whole run is a pure function of the measure: a fixed-seed class
   interleaving and an in-order Welford fold. *)
let acc_tests =
  [
    Alcotest.test_case "two same-seed runs are bit-identical" `Quick (fun () ->
        (* The determinism contract of the .mli, checked at the bit level:
           the same deterministic measure => identical class sequence,
           identical Welford fold order, identical float bits. *)
        let run () =
          let rng = Ctg_prng.Splitmix64.create 1234L in
          Dudect.test_ops
            ~config:{ config with measurements = 2_500 }
            (fun clazz ->
              let noise = Ctg_prng.Splitmix64.next_int rng 7 in
              match clazz with
              | Dudect.Fix -> 100 + noise
              | Dudect.Random -> 101 + noise)
        in
        let r1 = run () and r2 = run () in
        let bits = Int64.bits_of_float in
        Alcotest.(check int64) "t bits" (bits r1.Dudect.t_statistic)
          (bits r2.Dudect.t_statistic);
        Alcotest.(check int64) "mean_fix bits" (bits r1.Dudect.mean_fix)
          (bits r2.Dudect.mean_fix);
        Alcotest.(check int64) "mean_random bits" (bits r1.Dudect.mean_random)
          (bits r2.Dudect.mean_random);
        Alcotest.(check int) "samples" r1.Dudect.samples_per_class
          r2.Dudect.samples_per_class;
        Alcotest.(check bool) "leaky" r1.Dudect.leaky r2.Dudect.leaky);
    Alcotest.test_case "test_ops equals a manual accumulator run" `Quick
      (fun () ->
        (* test_ops is specified as 2 x measurements class draws folded
           in order into per-class moments: record what it measured and
           fold it by hand. *)
        let cfg = { config with Dudect.measurements = 3_000 } in
        let rng = Ctg_prng.Splitmix64.create 5L in
        let seen = ref [] in
        let f clazz =
          let v =
            (match clazz with Dudect.Fix -> 5 | Dudect.Random -> 9)
            + Ctg_prng.Splitmix64.next_int rng 3
          in
          seen := (clazz, v) :: !seen;
          v
        in
        let one = Dudect.test_ops ~config:cfg f in
        let fix = Ctg_stats.Moments.create () in
        let rnd = Ctg_stats.Moments.create () in
        List.iter
          (fun (clazz, v) ->
            Ctg_stats.Moments.add
              (match clazz with Dudect.Fix -> fix | Dudect.Random -> rnd)
              (float_of_int v))
          (List.rev !seen);
        Alcotest.(check int64) "t bits"
          (Int64.bits_of_float one.Dudect.t_statistic)
          (Int64.bits_of_float (Ctg_stats.Welch.t_statistic fix rnd));
        Alcotest.(check int) "count" (List.length !seen)
          (2 * cfg.Dudect.measurements));
  ]

let () =
  Alcotest.run "ctcheck"
    [ ("dudect", tests @ sampler_tests); ("accumulator", acc_tests) ]

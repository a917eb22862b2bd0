(* Known-answer tests: deterministic seeds pin the exact behaviour of the
   whole stack (probability pipeline, compiler, bitsliced evaluator,
   ChaCha20 stream, Falcon keygen/sign).  Any change to rounding, gate
   ordering or randomness consumption shows up here first — on purpose.
   If a change is intended, regenerate the constants and say so in the
   commit. *)

let kat_sigma2 =
  [| -3; 1; 0; 3; 2; 0; 1; 1; 0; 1; -1; 1; -2; 1; 0; -1; 0; 1; -3; -1; -3; 0;
     1; 1; 2; -1; -1; -2; 1; 0; 3; 1; -2; -1; -1; 0; 0; 2; 1; -2; -3; 0; -5;
     2; 1; -3; -4; -1; 0; 2; -1; -1; 0; 0; 1; 4; -3; 3; 3; 1; -1; 0; 1 |]

let kat_sigma6 =
  [| 3; 11; 3; -5; 6; 6; -2; -8; 8; 0; -1; -4; -10; 1; 4; -5; -5; 0; 4; -2;
     -3; -2; 4; -3; -6; 3; 3; 5; -7; -1; 3; -3; -1; 9; 0; 0; 3; 14; 7; -5;
     10; 4; -5; -3; 11; -2; 1; 0; -2; 5; -4; -8; 9; 5; -3; 3; 18; -1; 0; 6;
     -6; 8; 1 |]

let sampler sigma =
  Ctgauss.Sampler.create ~sigma ~precision:128 ~tail_cut:13 ()

let tests =
  [
    Alcotest.test_case "first batch, sigma=2, seed kat-sigma2" `Quick (fun () ->
        let s = sampler "2" in
        let rng =
          Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed "kat-sigma2")
        in
        Alcotest.(check (array int)) "batch" kat_sigma2
          (Ctgauss.Sampler.batch_signed s rng));
    Alcotest.test_case "first batch, sigma=6.15543, seed kat-sigma6" `Quick
      (fun () ->
        let s = sampler "6.15543" in
        let rng =
          Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed "kat-sigma6")
        in
        Alcotest.(check (array int)) "batch" kat_sigma6
          (Ctgauss.Sampler.batch_signed s rng));
    Alcotest.test_case "gate counts of the default compiler" `Quick (fun () ->
        Alcotest.(check int) "sigma 2" 3706 (Ctgauss.Sampler.gate_count (sampler "2"));
        Alcotest.(check int) "sigma 6.15543" 10793
          (Ctgauss.Sampler.gate_count (sampler "6.15543")));
    Alcotest.test_case "falcon keygen + signature, seed kat-falcon" `Quick
      (fun () ->
        let params = Ctg_falcon.Params.custom ~n:64 in
        let rng =
          Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed "kat-falcon")
        in
        let kp = Ctg_falcon.Keygen.generate params rng in
        Alcotest.(check int) "h[0]" 1572 kp.Ctg_falcon.Keygen.h.(0);
        Alcotest.(check int) "h[1]" 1966 kp.Ctg_falcon.Keygen.h.(1);
        let s = sampler "2" in
        let base =
          Ctg_falcon.Base_sampler.of_instance
            (Ctg_samplers.Sampler_sig.of_bitsliced s)
        in
        let sg = Ctg_falcon.Sign.sign kp base rng ~msg:(Bytes.of_string "kat") in
        Alcotest.(check int) "s2[0]" 104 sg.Ctg_falcon.Sign.s2.(0);
        Alcotest.(check int) "s2[1]" (-61) sg.Ctg_falcon.Sign.s2.(1);
        Alcotest.(check (float 0.5)) "norm^2" 6666281.0 sg.Ctg_falcon.Sign.norm_sq);
    Alcotest.test_case "falcon keys at n = 256, 512, 1024" `Quick (fun () ->
        (* MD5 of f, g, F, G and h, each printed as comma-separated
           decimals and joined with ';'. *)
        let digest (kp : Ctg_falcon.Keygen.keypair) =
          let s = kp.Ctg_falcon.Keygen.secret in
          [ s.f; s.g; s.big_f; s.big_g; kp.h ]
          |> List.map (fun a ->
                 String.concat "," (Array.to_list (Array.map string_of_int a)))
          |> String.concat ";" |> Digest.string |> Digest.to_hex
        in
        List.iter
          (fun (params, seed, expected) ->
            let rng =
              Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed seed)
            in
            Alcotest.(check string)
              (Printf.sprintf "%s, seed %s" (Ctg_falcon.Params.name params) seed)
              expected
              (digest (Ctg_falcon.Keygen.generate params rng)))
          Ctg_falcon.Params.
            [
              (level1, "kat-key-1", "e99382fcc7eaf06305e89ecccd4a2f20");
              (level1, "kat-key-2", "8927d60381b7f0bb68e09eecdc7ca8cc");
              (level2, "kat-key-1", "e64f4126e6f0fd8203d12b6b26b1614f");
              (level2, "kat-key-2", "b3d7b05470ade55355f1e04372b07073");
              (level3, "kat-key-1", "1045adaf7f4047601a0f2939bdf42935");
              (level3, "kat-key-2", "fa685010e9df30be502ffc4f06315879");
            ]);
  ]

let () = Alcotest.run "kat" [ ("known-answer", tests) ]

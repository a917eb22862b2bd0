(* Falcon substrate: ring arithmetic, NTRUSolve, LDL/ffSampling geometry,
   sign/verify roundtrips with both base samplers, and the codec.
   Small ring degrees keep the suite fast; the benches run full sizes. *)

module F = Ctg_falcon
module Z = Ctg_bigint.Zint
module Bs = Ctg_prng.Bitstream

let rng () = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "falcon-tests")
let sm seed = Ctg_prng.Splitmix64.create seed

let random_zq_poly rng n = Array.init n (fun _ -> Ctg_prng.Splitmix64.next_int rng F.Zq.q)
let random_small_poly rng n = Array.init n (fun _ -> Ctg_prng.Splitmix64.next_int rng 9 - 4)

let zq_tests =
  [
    Alcotest.test_case "field basics" `Quick (fun () ->
        Alcotest.(check int) "reduce negative" (F.Zq.q - 1) (F.Zq.reduce (-1));
        Alcotest.(check int) "mul" (F.Zq.reduce (12288 * 12288)) (F.Zq.mul 12288 12288);
        Alcotest.(check int) "inv" 1 (F.Zq.mul 5 (F.Zq.inv 5));
        Alcotest.(check int) "centered q-1" (-1) (F.Zq.centered (F.Zq.q - 1));
        Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
            ignore (F.Zq.inv 0)));
    Alcotest.test_case "primitive root has exact order 2n" `Quick (fun () ->
        List.iter
          (fun n ->
            let w = F.Zq.primitive_root_2n n in
            Alcotest.(check int) "order divides" 1 (F.Zq.pow w (2 * n));
            Alcotest.(check bool) "exact order" true (F.Zq.pow w n <> 1))
          [ 16; 256; 1024 ]);
  ]

let ntt_tests =
  [
    Alcotest.test_case "roundtrip" `Quick (fun () ->
        let plan = F.Ntt.plan 64 in
        let a = random_zq_poly (sm 1L) 64 in
        Alcotest.(check (array int)) "inv(fwd(a)) = a" a
          (F.Ntt.inverse plan (F.Ntt.forward plan a)));
    Alcotest.test_case "negacyclic product vs schoolbook" `Quick (fun () ->
        let plan = F.Ntt.plan 32 in
        let r = sm 2L in
        for _ = 1 to 20 do
          let a = random_zq_poly r 32 and b = random_zq_poly r 32 in
          let via_ntt = F.Ntt.negacyclic_mul plan a b in
          let via_school =
            F.Polyz.reduce_mod_q
              (F.Polyz.mul (F.Polyz.of_int_array a) (F.Polyz.of_int_array b))
              ~q:F.Zq.q
          in
          Alcotest.(check (array int)) "equal" via_school via_ntt
        done);
    Alcotest.test_case "x^n = -1 in the ring" `Quick (fun () ->
        let n = 16 in
        let plan = F.Ntt.plan n in
        let x = Array.init n (fun i -> if i = 1 then 1 else 0) in
        (* x^(n) via repeated squaring-free n-1 multiplications. *)
        let acc = ref x in
        for _ = 2 to n do
          acc := F.Ntt.negacyclic_mul plan !acc x
        done;
        let minus_one = Array.init n (fun i -> if i = 0 then F.Zq.q - 1 else 0) in
        Alcotest.(check (array int)) "wraps" minus_one !acc);
    Alcotest.test_case "ring_inv" `Quick (fun () ->
        let plan = F.Ntt.plan 32 in
        let r = sm 3L in
        let rec find () =
          let a = random_zq_poly r 32 in
          if F.Ntt.invertible plan a then a else find ()
        in
        let a = find () in
        let one = Array.init 32 (fun i -> if i = 0 then 1 else 0) in
        Alcotest.(check (array int)) "a·a⁻¹" one
          (F.Ntt.negacyclic_mul plan a (F.Ntt.ring_inv plan a)));
  ]

let fft_tests =
  [
    Alcotest.test_case "roundtrip accuracy" `Quick (fun () ->
        let a = Array.map float_of_int (random_small_poly (sm 4L) 128) in
        let back = F.Fftc.to_real (F.Fftc.of_real a) in
        Array.iteri
          (fun i x ->
            Alcotest.(check (float 1e-9)) (Printf.sprintf "coeff %d" i) x back.(i))
          a);
    Alcotest.test_case "pointwise mul is ring mul" `Quick (fun () ->
        let a = random_small_poly (sm 5L) 32 and b = random_small_poly (sm 6L) 32 in
        let fm =
          F.Fftc.to_real (F.Fftc.mul (F.Fftc.of_int_poly a) (F.Fftc.of_int_poly b))
        in
        let exact =
          F.Polyz.mul (F.Polyz.of_int_array a) (F.Polyz.of_int_array b)
        in
        Array.iteri
          (fun i c ->
            Alcotest.(check (float 1e-6)) "coeff" (Z.to_float c) fm.(i))
          exact);
    Alcotest.test_case "split/merge semantics" `Quick (fun () ->
        let a = Array.map float_of_int (random_small_poly (sm 7L) 64) in
        let f = F.Fftc.of_real a in
        let f0, f1 = F.Fftc.split f in
        let c0 = F.Fftc.to_real f0 and c1 = F.Fftc.to_real f1 in
        for i = 0 to 31 do
          Alcotest.(check (float 1e-9)) "even" a.(2 * i) c0.(i);
          Alcotest.(check (float 1e-9)) "odd" a.((2 * i) + 1) c1.(i)
        done;
        let g = F.Fftc.merge f0 f1 in
        Array.iteri
          (fun i x -> Alcotest.(check (float 1e-9)) "merge" x g.F.Fftc.re.(i))
          f.F.Fftc.re);
    Alcotest.test_case "adjoint matches coefficient involution" `Quick
      (fun () ->
        let a = random_small_poly (sm 8L) 16 in
        let direct = F.Fftc.to_real (F.Fftc.adjoint (F.Fftc.of_int_poly a)) in
        let expected =
          Array.map Z.to_float (F.Polyz.adjoint (F.Polyz.of_int_array a))
        in
        Array.iteri
          (fun i x -> Alcotest.(check (float 1e-8)) "coeff" x direct.(i))
          expected);
    Alcotest.test_case "in-place split/merge = allocating versions" `Quick
      (fun () ->
        let a = Array.map float_of_int (random_small_poly (sm 9L) 32) in
        let f = F.Fftc.of_real a in
        let f0, f1 = F.Fftc.split f in
        let g0 = F.Fftc.create 16 and g1 = F.Fftc.create 16 in
        F.Fftc.split_into f (g0, g1);
        Alcotest.(check bool) "halves equal" true
          (f0.F.Fftc.re = g0.F.Fftc.re && f1.F.Fftc.re = g1.F.Fftc.re);
        let out = F.Fftc.create 32 in
        F.Fftc.merge_into (g0, g1) out;
        let reference = F.Fftc.merge f0 f1 in
        Alcotest.(check bool) "merged equal" true
          (out.F.Fftc.re = reference.F.Fftc.re && out.F.Fftc.im = reference.F.Fftc.im));
  ]

let polyz_tests =
  [
    Alcotest.test_case "field norm identity N(f)(x²) = f(x)·f(−x)" `Quick
      (fun () ->
        let r = sm 10L in
        for _ = 1 to 10 do
          let f = F.Polyz.of_int_array (random_small_poly r 32) in
          Alcotest.(check bool) "identity" true
            (F.Polyz.equal
               (F.Polyz.lift (F.Polyz.field_norm f))
               (F.Polyz.mul f (F.Polyz.galois f)))
        done);
    Alcotest.test_case "field norm is multiplicative" `Quick (fun () ->
        let r = sm 11L in
        let f = F.Polyz.of_int_array (random_small_poly r 16) in
        let g = F.Polyz.of_int_array (random_small_poly r 16) in
        Alcotest.(check bool) "N(fg) = N(f)N(g)" true
          (F.Polyz.equal
             (F.Polyz.field_norm (F.Polyz.mul f g))
             (F.Polyz.mul (F.Polyz.field_norm f) (F.Polyz.field_norm g))));
    Alcotest.test_case "adjoint is an involution" `Quick (fun () ->
        let f = F.Polyz.of_int_array (random_small_poly (sm 12L) 16) in
        Alcotest.(check bool) "f** = f" true
          (F.Polyz.equal f (F.Polyz.adjoint (F.Polyz.adjoint f))));
    Alcotest.test_case "negacyclic wraparound sign" `Quick (fun () ->
        (* (x^(n-1))·x = -1. *)
        let n = 8 in
        let xe i = Array.init n (fun j -> Z.of_int (if j = i then 1 else 0)) in
        let prod = F.Polyz.mul (xe (n - 1)) (xe 1) in
        Alcotest.(check bool) "equals -1" true
          (Z.equal prod.(0) Z.minus_one
          && Array.for_all Z.is_zero (Array.sub prod 1 (n - 1))));
  ]

let egcd_tests =
  [
    Alcotest.test_case "egcd identities" `Quick (fun () ->
        List.iter
          (fun (a, b) ->
            let az = Z.of_int a and bz = Z.of_int b in
            let d, u, v = F.Ntru_solve.egcd az bz in
            Alcotest.(check bool) "bezout" true
              (Z.equal d (Z.add (Z.mul u az) (Z.mul v bz)));
            Alcotest.(check bool) "non-negative" true (Z.sign d >= 0))
          [ (12, 18); (-12, 18); (17, 0); (0, 5); (12289, 256); (-7, -21) ]);
    Alcotest.test_case "egcd of coprime huge values" `Quick (fun () ->
        let a = Z.of_string "170141183460469231731687303715884105727" in
        let b = Z.of_string "340282366920938463463374607431768211297" in
        let d, u, v = F.Ntru_solve.egcd a b in
        Alcotest.(check bool) "bezout" true
          (Z.equal d (Z.add (Z.mul u a) (Z.mul v b))));
  ]

let keygen_tests =
  let params = F.Params.custom ~n:32 in
  let kp = F.Keygen.generate params (rng ()) in
  [
    Alcotest.test_case "NTRU equation holds exactly" `Quick (fun () ->
        Alcotest.(check bool) "fG - gF = q" true (F.Keygen.check_ntru_equation kp));
    Alcotest.test_case "public key consistent" `Quick (fun () ->
        Alcotest.(check bool) "f·h = g" true (F.Keygen.check_public_key kp));
    Alcotest.test_case "tree has 2N leaves" `Quick (fun () ->
        Alcotest.(check int) "leaves" 64 (F.Ldl.leaf_count kp.F.Keygen.tree));
    Alcotest.test_case "sum of GS norms approx 2Nq" `Quick (fun () ->
        let expected = float_of_int (2 * 32 * F.Zq.q) in
        let ratio = kp.F.Keygen.tree.F.Ldl.sum_d /. expected in
        Alcotest.(check bool)
          (Printf.sprintf "ratio %.3f" ratio)
          true
          (ratio > 0.9 && ratio < 1.3));
    Alcotest.test_case "solved F,G are size-reduced" `Quick (fun () ->
        let bits =
          F.Polyz.max_bits (F.Polyz.of_int_array kp.F.Keygen.secret.F.Keygen.big_f)
        in
        Alcotest.(check bool) (Printf.sprintf "%d bits" bits) true (bits < 24));
    Alcotest.test_case "ntru_solve rejects common factors" `Quick (fun () ->
        (* f = g = 2·(1 + x): every resultant is even, and gcd does not
           divide q = 12289 (odd prime). *)
        let n = 4 in
        let two = Array.init n (fun i -> Z.of_int (if i <= 1 then 2 else 0)) in
        Alcotest.(check bool) "None" true
          (F.Ntru_solve.solve ~q:F.Zq.q ~f:two ~g:two = None));
  ]

let signing_tests =
  let params = F.Params.custom ~n:64 in
  let kp = F.Keygen.generate params (rng ()) in
  let mk_paper_base () =
    let s = Ctgauss.Sampler.create ~sigma:"2" ~precision:64 ~tail_cut:13 () in
    F.Base_sampler.of_instance (Ctg_samplers.Sampler_sig.of_bitsliced s)
  in
  [
    Alcotest.test_case "sign/verify roundtrip (ideal base)" `Quick (fun () ->
        let base = F.Base_sampler.ideal () in
        let r = rng () in
        let bound = F.Sign.norm_bound_sq params in
        let msg = Bytes.of_string "attack at dawn" in
        let s = F.Sign.sign kp base r ~msg in
        Alcotest.(check bool) "verifies" true
          (F.Verify.verify ~params ~h:kp.F.Keygen.h ~bound_sq:bound ~msg
             ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2));
    Alcotest.test_case "sign/verify roundtrip (paper sigma=2 base)" `Quick
      (fun () ->
        let base = mk_paper_base () in
        let r = rng () in
        let bound = F.Sign.norm_bound_sq params in
        let msg = Bytes.of_string "attack at dusk" in
        let s = F.Sign.sign kp base r ~msg in
        Alcotest.(check bool) "verifies" true
          (F.Verify.verify ~params ~h:kp.F.Keygen.h ~bound_sq:bound ~msg
             ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2);
        Alcotest.(check int) "2N sampler calls per attempt" (128 * s.F.Sign.attempts)
          (F.Base_sampler.calls base));
    Alcotest.test_case "wrong message rejected" `Quick (fun () ->
        let base = F.Base_sampler.ideal () in
        let r = rng () in
        let bound = F.Sign.norm_bound_sq params in
        let s = F.Sign.sign kp base r ~msg:(Bytes.of_string "genuine") in
        Alcotest.(check bool) "forged" false
          (F.Verify.verify ~params ~h:kp.F.Keygen.h ~bound_sq:bound
             ~msg:(Bytes.of_string "forged") ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2));
    Alcotest.test_case "tampered s2 rejected" `Quick (fun () ->
        let base = F.Base_sampler.ideal () in
        let r = rng () in
        let bound = F.Sign.norm_bound_sq params in
        let msg = Bytes.of_string "immutable" in
        let s = F.Sign.sign kp base r ~msg in
        let bad = Array.copy s.F.Sign.s2 in
        bad.(0) <- bad.(0) + 2000;
        Alcotest.(check bool) "rejected" false
          (F.Verify.verify ~params ~h:kp.F.Keygen.h ~bound_sq:bound ~msg
             ~salt:s.F.Sign.salt ~s2:bad));
    Alcotest.test_case "signature satisfies the lattice congruence" `Quick
      (fun () ->
        let base = F.Base_sampler.ideal () in
        let r = rng () in
        let msg = Bytes.of_string "congruence" in
        let s = F.Sign.sign kp base r ~msg in
        let c = F.Hash_point.hash ~n:64 ~salt:s.F.Sign.salt ~msg in
        let s1' =
          F.Verify.recover_s1 ~params ~h:kp.F.Keygen.h ~c ~s2:s.F.Sign.s2
        in
        Alcotest.(check (array int)) "s1 = c - s2 h"
          (Array.map (fun x -> F.Zq.centered (F.Zq.reduce x)) s.F.Sign.s1)
          s1');
    Alcotest.test_case "hash_point is in range and salt-sensitive" `Quick
      (fun () ->
        let msg = Bytes.of_string "m" in
        let a = F.Hash_point.hash ~n:64 ~salt:(Bytes.make 40 'a') ~msg in
        let b = F.Hash_point.hash ~n:64 ~salt:(Bytes.make 40 'b') ~msg in
        Array.iter
          (fun c -> Alcotest.(check bool) "in range" true (c >= 0 && c < F.Zq.q))
          a;
        Alcotest.(check bool) "different" true (a <> b));
    Alcotest.test_case "paper base error variance" `Quick (fun () ->
        let base = mk_paper_base () in
        Alcotest.(check (float 1e-9)) "sigma_b^2 + 1/12"
          (4.0 +. (1.0 /. 12.0))
          (F.Base_sampler.error_variance base));
  ]

let codec_tests =
  [
    Alcotest.test_case "s2 compression roundtrip" `Quick (fun () ->
        let r = sm 20L in
        for _ = 1 to 50 do
          let s2 = Array.init 64 (fun _ -> Ctg_prng.Splitmix64.next_int r 601 - 300) in
          match F.Codec.decompress_s2 ~n:64 (F.Codec.compress_s2 s2) with
          | Some back -> Alcotest.(check (array int)) "roundtrip" s2 back
          | None -> Alcotest.fail "decode failed"
        done);
    Alcotest.test_case "signature encode/decode" `Quick (fun () ->
        let params = F.Params.custom ~n:64 in
        let salt = Bytes.init 40 (fun i -> Char.chr (i * 3 land 0xff)) in
        let s2 = Array.init 64 (fun i -> (i * 7 mod 300) - 150) in
        let blob = F.Codec.encode_signature ~salt ~s2 in
        (match F.Codec.decode_signature ~params blob with
        | Some (salt', s2') ->
          Alcotest.(check bytes) "salt" salt salt';
          Alcotest.(check (array int)) "s2" s2 s2'
        | None -> Alcotest.fail "decode failed"));
    Alcotest.test_case "public key encode/decode" `Quick (fun () ->
        let h = random_zq_poly (sm 21L) 64 in
        (match F.Codec.decode_public_key ~n:64 (F.Codec.encode_public_key h) with
        | Some h' -> Alcotest.(check (array int)) "roundtrip" h h'
        | None -> Alcotest.fail "decode failed");
        Alcotest.(check int) "14 bits/coeff" 112
          (F.Codec.public_key_bytes h));
    Alcotest.test_case "malformed input rejected" `Quick (fun () ->
        let params = F.Params.custom ~n:64 in
        Alcotest.(check bool) "short" true
          (F.Codec.decode_signature ~params (Bytes.create 10) = None);
        Alcotest.(check bool) "garbage pk value" true
          (F.Codec.decode_public_key ~n:4 (Bytes.make 7 '\xff') = None));
    Alcotest.test_case "oversized coefficient rejected" `Quick (fun () ->
        Alcotest.check_raises "too large"
          (Invalid_argument "Codec.compress_s2: coefficient too large")
          (fun () -> ignore (F.Codec.compress_s2 [| 1 lsl 17 |])));
    Alcotest.test_case "falcon-like signature sizes (intro claim)" `Slow
      (fun () ->
        (* The paper's intro: Falcon minimizes |pk| + |sig|.  At N=512 the
           compressed signature should land near Falcon's ~650 bytes. *)
        let params = F.Params.custom ~n:64 in
        let kp = F.Keygen.generate params (rng ()) in
        let base = F.Base_sampler.ideal () in
        let s = F.Sign.sign kp base (rng ()) ~msg:(Bytes.of_string "size") in
        let bytes = F.Codec.signature_bytes ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2 in
        (* ~1.3 bytes/coeff + salt at this reduced degree. *)
        Alcotest.(check bool) (Printf.sprintf "%d bytes" bytes) true
          (bytes > 40 && bytes < 40 + 2 + (64 * 3)));
  ]

let ffsampling_tests =
  let params = F.Params.custom ~n:32 in
  let kp = F.Keygen.generate params (rng ()) in
  [
    Alcotest.test_case "z lands near the target (nearest-plane quality)" `Quick
      (fun () ->
        (* (t - z)·B must be much shorter than a random lattice vector:
           its squared norm concentrates near (error variance)·Σd. *)
        let base = F.Base_sampler.ideal () in
        let r = rng () in
        let n = 32 in
        let qf = float_of_int params.F.Params.q in
        let acc = Ctg_stats.Moments.create () in
        for i = 1 to 30 do
          let salt = Bytes.make 40 (Char.chr i) in
          let c = F.Hash_point.hash ~n ~salt ~msg:(Bytes.of_string "t") in
          let c_fft = F.Fftc.of_int_poly c in
          let t0 = F.Fftc.scale (F.Fftc.mul c_fft kp.F.Keygen.big_f_fft) (-1.0 /. qf) in
          let t1 = F.Fftc.scale (F.Fftc.mul c_fft kp.F.Keygen.f_fft) (1.0 /. qf) in
          let z0, z1 = F.Ff_sampling.sample kp.F.Keygen.tree base r ~t0 ~t1 in
          let d0 = F.Fftc.sub t0 z0 and d1 = F.Fftc.sub t1 z1 in
          let b10, b11 = kp.F.Keygen.b1_fft and b20, b21 = kp.F.Keygen.b2_fft in
          let s1 = F.Fftc.add (F.Fftc.mul d0 b10) (F.Fftc.mul d1 b20) in
          let s2 = F.Fftc.add (F.Fftc.mul d0 b11) (F.Fftc.mul d1 b21) in
          Ctg_stats.Moments.add acc (F.Fftc.norm_sq s1 +. F.Fftc.norm_sq s2)
        done;
        (* Ideal sampler: E = 2N·sigma_sign² = 64·(1.17²·q) ≈ 1.08e6. *)
        let expected =
          float_of_int (2 * n) *. kp.F.Keygen.tree.F.Ldl.sigma_sign ** 2.0
        in
        let ratio = Ctg_stats.Moments.mean acc /. expected in
        Alcotest.(check bool)
          (Printf.sprintf "mean ratio %.2f" ratio)
          true
          (ratio > 0.6 && ratio < 1.6));
    Alcotest.test_case "z coefficients are integers in the FFT domain" `Quick
      (fun () ->
        let base = F.Base_sampler.ideal () in
        let r = rng () in
        let t0 = F.Fftc.of_real (Array.make 32 0.3) in
        let t1 = F.Fftc.of_real (Array.make 32 (-0.7)) in
        let z0, z1 = F.Ff_sampling.sample kp.F.Keygen.tree base r ~t0 ~t1 in
        List.iter
          (fun z ->
            Array.iter
              (fun c ->
                Alcotest.(check (float 1e-6)) "integral" (Float.round c) c)
              (F.Fftc.to_real z))
          [ z0; z1 ]);
    Alcotest.test_case "babai reduce shrinks oversized vectors" `Quick
      (fun () ->
        (* Blow F,G up by adding a huge multiple of (f,g); reduce must
           bring the bit size back down near the original. *)
        let f = F.Polyz.of_int_array kp.F.Keygen.secret.F.Keygen.f in
        let g = F.Polyz.of_int_array kp.F.Keygen.secret.F.Keygen.g in
        let big_f = F.Polyz.of_int_array kp.F.Keygen.secret.F.Keygen.big_f in
        let big_g = F.Polyz.of_int_array kp.F.Keygen.secret.F.Keygen.big_g in
        let huge = Ctg_bigint.Zint.shift_left Ctg_bigint.Zint.one 120 in
        let big_f' = F.Polyz.add big_f (F.Polyz.mul_scalar f huge) in
        let big_g' = F.Polyz.add big_g (F.Polyz.mul_scalar g huge) in
        Alcotest.(check bool) "blown up" true (F.Polyz.max_bits big_f' > 100);
        let rf, rg = F.Ntru_solve.reduce ~f ~g big_f' big_g' in
        Alcotest.(check bool)
          (Printf.sprintf "reduced to %d bits" (F.Polyz.max_bits rf))
          true
          (F.Polyz.max_bits rf < 40 && F.Polyz.max_bits rg < 40);
        (* The NTRU equation survives reduction (lattice-preserving op). *)
        let lhs = F.Polyz.sub (F.Polyz.mul f rg) (F.Polyz.mul g rf) in
        let expected =
          Array.init 32 (fun i ->
              if i = 0 then Ctg_bigint.Zint.of_int params.F.Params.q
              else Ctg_bigint.Zint.zero)
        in
        Alcotest.(check bool) "fG - gF = q still" true (F.Polyz.equal lhs expected));
    Alcotest.test_case "verify rejects norms just above the bound" `Quick
      (fun () ->
        let base = F.Base_sampler.ideal () in
        let r = rng () in
        let msg = Bytes.of_string "bound check" in
        let s = F.Sign.sign kp base r ~msg in
        (* Tighten the bound below this signature's norm: must reject. *)
        Alcotest.(check bool) "rejected under tight bound" false
          (F.Verify.verify ~params ~h:kp.F.Keygen.h
             ~bound_sq:(s.F.Sign.norm_sq -. 1.0) ~msg ~salt:s.F.Sign.salt
             ~s2:s.F.Sign.s2));
  ]

let keypair_codec_tests =
  [
    Alcotest.test_case "keypair binary roundtrip" `Quick (fun () ->
        let params = F.Params.custom ~n:32 in
        let kp = F.Keygen.generate params (rng ()) in
        let blob = F.Codec.encode_keypair kp in
        match F.Codec.decode_keypair blob with
        | None -> Alcotest.fail "decode failed"
        | Some kp' ->
          Alcotest.(check (array int)) "f" kp.F.Keygen.secret.F.Keygen.f
            kp'.F.Keygen.secret.F.Keygen.f;
          Alcotest.(check (array int)) "G" kp.F.Keygen.secret.F.Keygen.big_g
            kp'.F.Keygen.secret.F.Keygen.big_g;
          Alcotest.(check (array int)) "h" kp.F.Keygen.h kp'.F.Keygen.h;
          Alcotest.(check bool) "restored key still satisfies NTRU" true
            (F.Keygen.check_ntru_equation kp'));
    Alcotest.test_case "restored key signs and verifies" `Quick (fun () ->
        let params = F.Params.custom ~n:32 in
        let kp = F.Keygen.generate params (rng ()) in
        let kp' =
          match F.Codec.decode_keypair (F.Codec.encode_keypair kp) with
          | Some k -> k
          | None -> Alcotest.fail "decode failed"
        in
        let base = F.Base_sampler.ideal () in
        let r = rng () in
        let msg = Bytes.of_string "serialized key" in
        let s = F.Sign.sign kp' base r ~msg in
        Alcotest.(check bool) "verifies" true
          (F.Verify.verify ~params ~h:kp.F.Keygen.h
             ~bound_sq:(F.Sign.norm_bound_sq params) ~msg ~salt:s.F.Sign.salt
             ~s2:s.F.Sign.s2));
    Alcotest.test_case "malformed keypair blobs rejected" `Quick (fun () ->
        Alcotest.(check bool) "empty" true (F.Codec.decode_keypair Bytes.empty = None);
        Alcotest.(check bool) "bad magic" true
          (F.Codec.decode_keypair (Bytes.of_string "NOPE\x08\x00") = None);
        let params = F.Params.custom ~n:16 in
        let kp = F.Keygen.generate params (rng ()) in
        let blob = F.Codec.encode_keypair kp in
        let truncated = Bytes.sub blob 0 (Bytes.length blob - 3) in
        Alcotest.(check bool) "truncated" true
          (F.Codec.decode_keypair truncated = None));
  ]

(* Signing on several domains at once must not share mutable scratch
   state: each message's signature depends only on its lane. *)
let multi_domain_tests =
  [
    Alcotest.test_case "Falcon-512 sign_many: 2 domains = 1 domain" `Quick
      (fun () ->
        let params = F.Params.level2 in
        let kp = F.Keygen.generate params (rng ()) in
        let sampler =
          Ctgauss.Sampler.create ~sigma:"2" ~precision:64 ~tail_cut:13 ()
        in
        let make_base () =
          F.Base_sampler.of_instance
            (Ctg_samplers.Sampler_sig.of_bitsliced (Ctgauss.Sampler.clone sampler))
        in
        let msgs =
          Array.init 16 (fun i -> Bytes.of_string (Printf.sprintf "batch message %d" i))
        in
        let sign domains =
          F.Sign.sign_many ~domains ~check:true kp ~make_base ~seed:"two-domain"
            ~msgs
        in
        let one = sign 1 and two = sign 2 in
        let bound_sq = F.Sign.norm_bound_sq params in
        Array.iteri
          (fun i (s : F.Sign.signature) ->
            let r = one.(i) in
            Alcotest.(check string) "salt" (Bytes.to_string r.F.Sign.salt)
              (Bytes.to_string s.F.Sign.salt);
            Alcotest.(check (array int)) "s2" r.F.Sign.s2 s.F.Sign.s2;
            Alcotest.(check bool) "verifies" true
              (F.Verify.verify ~params ~h:kp.F.Keygen.h ~bound_sq ~msg:msgs.(i)
                 ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2))
          two);
  ]

let () =
  Alcotest.run "falcon"
    [
      ("zq", zq_tests);
      ("ntt", ntt_tests);
      ("fft", fft_tests);
      ("polyz", polyz_tests);
      ("egcd", egcd_tests);
      ("keygen", keygen_tests);
      ("signing", signing_tests);
      ("codec", codec_tests);
      ("keypair-codec", keypair_codec_tests);
      ("ffsampling", ffsampling_tests);
      ("multi-domain", multi_domain_tests);
    ]

module Bs = Ctg_prng.Bitstream

type secret = {
  f : int array;
  g : int array;
  big_f : int array;
  big_g : int array;
}

type keypair = {
  params : Params.t;
  secret : secret;
  h : int array;
  h_ntt : int array;
  tree : Ldl.t;
  b1_fft : Fftc.t * Fftc.t;
  b2_fft : Fftc.t * Fftc.t;
  f_fft : Fftc.t;
  big_f_fft : Fftc.t;
  attempts : int;
}

(* Key polynomials need a quick Gaussian of width sigma_fg (3..6): a small
   float CDT inverted with a 53-bit uniform is exact enough for key
   material in this reproduction (keys are public-randomness here). *)
let gaussian_int rng ~sigma =
  let tail = int_of_float (ceil (sigma *. 13.0)) in
  let weight z = exp (-.float_of_int (z * z) /. (2.0 *. sigma *. sigma)) in
  let total = ref (weight 0) in
  for z = 1 to tail do
    total := !total +. (2.0 *. weight z)
  done;
  let hi = Bs.next_bits rng 26 and lo = Bs.next_bits rng 27 in
  let u =
    float_of_int ((hi lsl 27) lor lo) /. 9007199254740992.0 *. !total
  in
  let rec walk z acc =
    let w = if z = 0 then weight 0 else 2.0 *. weight z in
    let acc = acc +. w in
    if u < acc || z >= tail then z else walk (z + 1) acc
  in
  let mag = walk 0 0.0 in
  if mag > 0 && Bs.next_bit rng = 1 then -mag else mag

let sigma_sign params =
  (* Round-1 Falcon scale: the signing Gaussian is a small multiple of
     sqrt(q); only the tree-leaf σ' values (ideal mode) depend on it. *)
  1.17 *. sqrt (float_of_int params.Params.q)

let generate params rng =
  let n = params.Params.n in
  let plan = Ntt.plan n in
  let rec attempt k =
    if k > 200 then failwith "Keygen.generate: no valid (f, g) in 200 draws";
    let f = Array.init n (fun _ -> gaussian_int rng ~sigma:params.Params.sigma_fg) in
    let g = Array.init n (fun _ -> gaussian_int rng ~sigma:params.Params.sigma_fg) in
    let f_q = Array.map Zq.reduce f in
    if not (Ntt.invertible plan f_q) then attempt (k + 1)
    else begin
      let zf = Polyz.of_int_array f and zg = Polyz.of_int_array g in
      match Ntru_solve.solve ~q:params.Params.q ~f:zf ~g:zg with
      | None -> attempt (k + 1)
      | Some (zbig_f, zbig_g) -> (f, g, zbig_f, zbig_g, k)
    end
  in
  let f, g, zbig_f, zbig_g, attempts = attempt 1 in
  let big_f = Polyz.to_int_array zbig_f in
  let big_g = Polyz.to_int_array zbig_g in
  let f_q = Array.map Zq.reduce f and g_q = Array.map Zq.reduce g in
  let h = Ntt.negacyclic_mul plan g_q (Ntt.ring_inv plan f_q) in
  let neg p = Array.map (fun c -> -c) p in
  let b1_fft = (Fftc.of_int_poly g, Fftc.of_int_poly (neg f)) in
  let b2_fft = (Fftc.of_int_poly big_g, Fftc.of_int_poly (neg big_f)) in
  let tree = Ldl.build ~b1:b1_fft ~b2:b2_fft ~sigma_sign:(sigma_sign params) in
  {
    params;
    secret = { f; g; big_f; big_g };
    h;
    h_ntt = Ntt.forward plan h;
    tree;
    b1_fft;
    b2_fft;
    f_fft = Fftc.of_int_poly f;
    big_f_fft = Fftc.of_int_poly big_f;
    attempts;
  }

let restore params ~secret ~h =
  let neg p = Array.map (fun c -> -c) p in
  let b1_fft = (Fftc.of_int_poly secret.g, Fftc.of_int_poly (neg secret.f)) in
  let b2_fft =
    (Fftc.of_int_poly secret.big_g, Fftc.of_int_poly (neg secret.big_f))
  in
  let tree = Ldl.build ~b1:b1_fft ~b2:b2_fft ~sigma_sign:(sigma_sign params) in
  {
    params;
    secret;
    h;
    h_ntt = Ntt.forward (Ntt.plan params.Params.n) h;
    tree;
    b1_fft;
    b2_fft;
    f_fft = Fftc.of_int_poly secret.f;
    big_f_fft = Fftc.of_int_poly secret.big_f;
    attempts = 0;
  }

let check_ntru_equation kp =
  let f = Polyz.of_int_array kp.secret.f in
  let g = Polyz.of_int_array kp.secret.g in
  let big_f = Polyz.of_int_array kp.secret.big_f in
  let big_g = Polyz.of_int_array kp.secret.big_g in
  let lhs = Polyz.sub (Polyz.mul f big_g) (Polyz.mul g big_f) in
  let expected =
    Array.init kp.params.Params.n (fun i ->
        if i = 0 then Ctg_bigint.Zint.of_int kp.params.Params.q
        else Ctg_bigint.Zint.zero)
  in
  Polyz.equal lhs expected

let check_public_key kp =
  let plan = Ntt.plan kp.params.Params.n in
  let f_q = Array.map Zq.reduce kp.secret.f in
  let g_q = Array.map Zq.reduce kp.secret.g in
  Ntt.negacyclic_mul plan f_q kp.h = g_q

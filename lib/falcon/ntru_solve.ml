module Z = Ctg_bigint.Zint
module Nat = Ctg_bigint.Nat

let egcd a b =
  (* Invariant: r0 = s0·a + t0·b and r1 = s1·a + t1·b. *)
  let rec go r0 s0 t0 r1 s1 t1 =
    if Z.is_zero r1 then (r0, s0, t0)
    else begin
      let quot, rem = Z.ediv_rem r0 r1 in
      go r1 s1 t1 rem (Z.sub s0 (Z.mul quot s1)) (Z.sub t0 (Z.mul quot t1))
    end
  in
  let d, u, v = go a Z.one Z.zero b Z.zero Z.one in
  if Z.sign d < 0 then (Z.neg d, Z.neg u, Z.neg v) else (d, u, v)

(* Coefficient c·2^-shift as a float, exact in the 53-bit window. *)
let float_scaled c ~shift =
  let m, e = Nat.to_float_exp (Z.to_nat c) in
  let v = ldexp m (e - shift) in
  if Z.sign c < 0 then -.v else v

let fft_scaled poly ~shift =
  Fftc.of_real (Array.map (fun c -> float_scaled c ~shift) poly)

(* Babai: repeatedly subtract k·(f,g)·2^(s−m) from (F,G).  The windowed
   quotient comes out O(1) at scale 2^-s; rounded there, k would be
   mostly zero, so it is scaled up to ~40 bits first (m ≤ s, see the
   .mli).  Any integer k keeps f·G − g·F, so float error only costs
   passes, never correctness. *)
let reduce ~f ~g big_f big_g =
  let fg_bits = max 1 (max (Polyz.max_bits f) (Polyz.max_bits g)) in
  let shift_fg = max 0 (fg_bits - 53) in
  let f_fft = fft_scaled f ~shift:shift_fg in
  let g_fft = fft_scaled g ~shift:shift_fg in
  let f_adj = Fftc.adjoint f_fft and g_adj = Fftc.adjoint g_fft in
  let den = Fftc.add (Fftc.mul f_fft f_adj) (Fftc.mul g_fft g_adj) in
  (* Guards against inf/NaN from degenerate FFT points. *)
  let clamp x =
    if Float.is_nan x then 0.0 else Float.max (-4.5e15) (Float.min 4.5e15 x)
  in
  let rec go big_f big_g iter =
    if iter > 1000 then (big_f, big_g)
    else begin
      let fg_big_bits = max (Polyz.max_bits big_f) (Polyz.max_bits big_g) in
      let shift_big = max 0 (fg_big_bits - 53) in
      let s = shift_big - shift_fg in
      if s < 0 then (big_f, big_g)
      else begin
        let bf = fft_scaled big_f ~shift:shift_big in
        let bg = fft_scaled big_g ~shift:shift_big in
        let num = Fftc.add (Fftc.mul bf f_adj) (Fftc.mul bg g_adj) in
        let k_float = Array.map clamp (Fftc.to_real (Fftc.div num den)) in
        let top =
          Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 k_float
        in
        let m = min s (40 - snd (Float.frexp top)) in
        let k = Array.map (fun x -> Float.to_int (Float.round (ldexp x m))) k_float in
        if Array.for_all (fun x -> x = 0) k then (big_f, big_g)
        else begin
          let kz = Polyz.of_int_array k in
          let scale p = Array.map (fun c -> Z.shift_left c (s - m)) p in
          let big_f = Polyz.sub big_f (scale (Polyz.mul kz f)) in
          let big_g = Polyz.sub big_g (scale (Polyz.mul kz g)) in
          go big_f big_g (iter + 1)
        end
      end
    end
  in
  go big_f big_g 0

let rec solve_rec ~q (f : Polyz.t) (g : Polyz.t) =
  let n = Array.length f in
  if n = 1 then begin
    let d, u, v = egcd f.(0) g.(0) in
    if Z.is_zero d then None
    else begin
      let qz = Z.of_int q in
      let quot, rem = Z.ediv_rem qz d in
      if not (Z.is_zero rem) then None
      else
        (* f·G − g·F = q with G = u·q/d and F = −v·q/d. *)
        Some ([| Z.neg (Z.mul v quot) |], [| Z.mul u quot |])
    end
  end
  else begin
    let f' = Polyz.field_norm f and g' = Polyz.field_norm g in
    match solve_rec ~q f' g' with
    | None -> None
    | Some (big_f', big_g') ->
      let big_f = Polyz.mul (Polyz.lift big_f') (Polyz.galois g) in
      let big_g = Polyz.mul (Polyz.lift big_g') (Polyz.galois f) in
      let big_f, big_g = reduce ~f ~g big_f big_g in
      Some (big_f, big_g)
  end

let solve ~q ~f ~g =
  match solve_rec ~q f g with
  | None -> None
  | Some (big_f, big_g) ->
    (* Exactness check: f·G − g·F must equal the constant q. *)
    let lhs = Polyz.sub (Polyz.mul f big_g) (Polyz.mul g big_f) in
    let expected =
      Array.init (Array.length f) (fun i ->
          if i = 0 then Z.of_int q else Z.zero)
    in
    if Polyz.equal lhs expected then Some (big_f, big_g) else None

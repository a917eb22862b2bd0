type t = { n : int; re : float array; im : float array }

let pi = 4.0 *. atan 1.0
let slots n = max 1 (n / 2)

(* Per-degree tables, memoized: for the m = n/2 slots, the bit-reversal
   permutation and cyclic-FFT roots e^{2πik/m} (k < m/2), the coefficient
   twists e^{iπj/n} (j < m), and the split/merge factors ζ_k = e^{iπ(4k+1)/n}
   (k < n/4).  Signing walks the tree thousands of times; recomputing
   cos/sin per butterfly dominated the profile before this cache. *)
type tables = {
  rev : int array;
  root_re : float array;
  root_im : float array;
  twist_re : float array;
  twist_im : float array;
  split_re : float array;
  split_im : float array;
}

let build_tables n =
  let m = slots n in
  let bits =
    let rec go b v = if v <= 1 then b else go (b + 1) (v lsr 1) in
    go 0 m
  in
  let rev =
    Array.init m (fun i ->
        let r = ref 0 in
        for b = 0 to bits - 1 do
          if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
        done;
        !r)
  in
  let unit_circle len angle =
    ( Array.init len (fun k -> cos (angle k)),
      Array.init len (fun k -> sin (angle k)) )
  in
  let nf = float_of_int n in
  let root_re, root_im =
    unit_circle (m / 2) (fun k ->
        2.0 *. pi *. float_of_int k /. float_of_int m)
  in
  let twist_re, twist_im =
    unit_circle m (fun j -> pi *. float_of_int j /. nf)
  in
  let split_re, split_im =
    unit_circle (n / 4) (fun k -> pi *. float_of_int ((4 * k) + 1) /. nf)
  in
  { rev; root_re; root_im; twist_re; twist_im; split_re; split_im }

(* Shared by all domains: the tables are immutable once built, so only
   publishing a new size needs care.  Lock-free, as {!Ntt.plan}: a losing
   racer's duplicate is dropped. *)
let table_cache : (int * tables) list Atomic.t = Atomic.make []

let tables n =
  match List.assq_opt n (Atomic.get table_cache) with
  | Some t -> t
  | None ->
    let t = build_tables n in
    let rec publish () =
      let cur = Atomic.get table_cache in
      match List.assq_opt n cur with
      | Some t' -> t'
      | None ->
        if Atomic.compare_and_set table_cache cur ((n, t) :: cur) then t
        else publish ()
    in
    publish ()

(* The swaps depend on the size only, never on the values. *)
let bit_reverse (rev : int array) (re : float array) (im : float array) =
  for i = 0 to Array.length re - 1 do
    let r = rev.(i) in
    if i < r then begin
      let t = re.(i) in
      re.(i) <- re.(r);
      re.(r) <- t;
      let t = im.(i) in
      im.(i) <- im.(r);
      im.(r) <- t
    end
  done

(* In-place iterative cyclic transform over the m slots,
   X_k = Σ_j x_j e^{sign·2πijk/m}; [scale] divides by m afterwards (the
   inverse direction). *)
let cyclic tb (re : float array) (im : float array) ~sign ~scale =
  let m = Array.length re in
  if m > 1 then begin
    bit_reverse tb.rev re im;
    let len = ref 2 in
    while !len <= m do
      let half = !len / 2 in
      let stride = m / !len in
      let i = ref 0 in
      while !i < m do
        for j = 0 to half - 1 do
          let wr = tb.root_re.(j * stride) in
          let wi = sign *. tb.root_im.(j * stride) in
          let xr = re.(!i + j + half) and xi = im.(!i + j + half) in
          let vr = (xr *. wr) -. (xi *. wi) in
          let vi = (xr *. wi) +. (xi *. wr) in
          let ur = re.(!i + j) and ui = im.(!i + j) in
          re.(!i + j) <- ur +. vr;
          im.(!i + j) <- ui +. vi;
          re.(!i + j + half) <- ur -. vr;
          im.(!i + j + half) <- ui -. vi
        done;
        i := !i + !len
      done;
      len := !len * 2
    done;
    if scale then begin
      let inv = 1.0 /. float_of_int m in
      for i = 0 to m - 1 do
        re.(i) <- re.(i) *. inv;
        im.(i) <- im.(i) *. inv
      done
    end
  end

(* A real f of degree n ≥ 2 takes conjugate values at conjugate roots, so
   it is kept at the m = n/2 roots ζ with ζ^m = i only: slot k holds
   f(ζ_k), ζ_k = e^{iπ(4k+1)/n}.  There f(ζ) = g(ζ) for the degree-m
   g_j = f_j + i·f_{j+m}, and twisting g_j by e^{iπj/n} turns g(ζ_k) into
   a plain m-point cyclic FFT.  ζ_k² is slot k of degree n/2 and −ζ_k is
   slot k + n/4 (what split/merge rely on).  n = 1 is one real slot. *)
let of_real (coeffs : float array) =
  let n = Array.length coeffs in
  if n = 1 then { n; re = [| coeffs.(0) |]; im = [| 0.0 |] }
  else begin
    let m = n / 2 in
    let tb = tables n in
    let re = Array.make m 0.0 and im = Array.make m 0.0 in
    for j = 0 to m - 1 do
      let a = coeffs.(j) and b = coeffs.(j + m) in
      let wr = tb.twist_re.(j) and wi = tb.twist_im.(j) in
      re.(j) <- (a *. wr) -. (b *. wi);
      im.(j) <- (a *. wi) +. (b *. wr)
    done;
    cyclic tb re im ~sign:1.0 ~scale:false;
    { n; re; im }
  end

(* As [of_real], converting in the twist loop: no n-float copy, which at
   n = 512 would be allocated straight in the major heap. *)
let of_int_poly (coeffs : int array) =
  let n = Array.length coeffs in
  if n = 1 then { n; re = [| float_of_int coeffs.(0) |]; im = [| 0.0 |] }
  else begin
    let m = n / 2 in
    let tb = tables n in
    let re = Array.make m 0.0 and im = Array.make m 0.0 in
    for j = 0 to m - 1 do
      let a = float_of_int coeffs.(j) and b = float_of_int coeffs.(j + m) in
      let wr = tb.twist_re.(j) and wi = tb.twist_im.(j) in
      re.(j) <- (a *. wr) -. (b *. wi);
      im.(j) <- (a *. wi) +. (b *. wr)
    done;
    cyclic tb re im ~sign:1.0 ~scale:false;
    { n; re; im }
  end

(* Inverse FFT and untwist of n ≥ 2, into fresh half-size arrays:
   [lo.(j) = f_j] and [hi.(j) = f_{j+n/2}]. *)
let untwist a =
  let n = a.n in
  let tb = tables n in
  let lo = Array.copy a.re and hi = Array.copy a.im in
  cyclic tb lo hi ~sign:(-1.0) ~scale:true;
  for j = 0 to (n / 2) - 1 do
    let u = lo.(j) and v = hi.(j) in
    let wr = tb.twist_re.(j) and wi = tb.twist_im.(j) in
    lo.(j) <- (u *. wr) +. (v *. wi);
    hi.(j) <- (v *. wr) -. (u *. wi)
  done;
  (lo, hi)

let to_real a =
  if a.n = 1 then [| a.re.(0) |]
  else begin
    let lo, hi = untwist a in
    Array.append lo hi
  end

let round_to_int a =
  if a.n = 1 then [| Float.to_int (Float.round a.re.(0)) |]
  else begin
    let lo, hi = untwist a in
    let m = a.n / 2 in
    let out = Array.make a.n 0 in
    for j = 0 to m - 1 do
      out.(j) <- Float.to_int (Float.round lo.(j));
      out.(j + m) <- Float.to_int (Float.round hi.(j))
    done;
    out
  end

let add a b =
  let m = Array.length a.re in
  let re = Array.make m 0.0 and im = Array.make m 0.0 in
  for i = 0 to m - 1 do
    re.(i) <- a.re.(i) +. b.re.(i);
    im.(i) <- a.im.(i) +. b.im.(i)
  done;
  { n = a.n; re; im }

let sub a b =
  let m = Array.length a.re in
  let re = Array.make m 0.0 and im = Array.make m 0.0 in
  for i = 0 to m - 1 do
    re.(i) <- a.re.(i) -. b.re.(i);
    im.(i) <- a.im.(i) -. b.im.(i)
  done;
  { n = a.n; re; im }

let mul a b =
  let m = Array.length a.re in
  let re = Array.make m 0.0 and im = Array.make m 0.0 in
  for i = 0 to m - 1 do
    re.(i) <- (a.re.(i) *. b.re.(i)) -. (a.im.(i) *. b.im.(i));
    im.(i) <- (a.re.(i) *. b.im.(i)) +. (a.im.(i) *. b.re.(i))
  done;
  { n = a.n; re; im }

let div a b =
  let m = Array.length a.re in
  let re = Array.make m 0.0 and im = Array.make m 0.0 in
  for i = 0 to m - 1 do
    let d = (b.re.(i) *. b.re.(i)) +. (b.im.(i) *. b.im.(i)) in
    re.(i) <- ((a.re.(i) *. b.re.(i)) +. (a.im.(i) *. b.im.(i))) /. d;
    im.(i) <- ((a.im.(i) *. b.re.(i)) -. (a.re.(i) *. b.im.(i))) /. d
  done;
  { n = a.n; re; im }

let adjoint a =
  let m = Array.length a.im in
  let im = Array.make m 0.0 in
  for i = 0 to m - 1 do
    im.(i) <- -.a.im.(i)
  done;
  { n = a.n; re = Array.copy a.re; im }

let scale a s =
  let m = Array.length a.re in
  let re = Array.make m 0.0 and im = Array.make m 0.0 in
  for i = 0 to m - 1 do
    re.(i) <- s *. a.re.(i);
    im.(i) <- s *. a.im.(i)
  done;
  { n = a.n; re; im }

(* Each slot stands for itself and its conjugate. *)
let norm_sq a =
  let acc = ref 0.0 in
  for i = 0 to Array.length a.re - 1 do
    acc := !acc +. (a.re.(i) *. a.re.(i)) +. (a.im.(i) *. a.im.(i))
  done;
  if a.n = 1 then !acc else 2.0 *. !acc /. float_of_int a.n

let create n = { n; re = Array.make (slots n) 0.0; im = Array.make (slots n) 0.0 }

let blit src dst =
  Array.blit src.re 0 dst.re 0 (Array.length src.re);
  Array.blit src.im 0 dst.im 0 (Array.length src.im)

(* f0(ζ²) = (f(ζ) + f(−ζ))/2 and f1(ζ²) = (f(ζ) − f(−ζ))/(2ζ), with −ζ_k
   in slot k + h.  At n = 2 the one slot is f_0 + i·f_1. *)
let split_into a (f0, f1) =
  if a.n = 2 then begin
    f0.re.(0) <- a.re.(0);
    f0.im.(0) <- 0.0;
    f1.re.(0) <- a.im.(0);
    f1.im.(0) <- 0.0
  end
  else begin
    let tb = tables a.n in
    let h = a.n / 4 in
    for k = 0 to h - 1 do
      let ar = a.re.(k) and ai = a.im.(k) in
      let br = a.re.(k + h) and bi = a.im.(k + h) in
      f0.re.(k) <- 0.5 *. (ar +. br);
      f0.im.(k) <- 0.5 *. (ai +. bi);
      let dr = 0.5 *. (ar -. br) and di = 0.5 *. (ai -. bi) in
      let wr = tb.split_re.(k) and wi = -.tb.split_im.(k) in
      f1.re.(k) <- (dr *. wr) -. (di *. wi);
      f1.im.(k) <- (dr *. wi) +. (di *. wr)
    done
  end

let merge_into (f0, f1) out =
  if out.n = 2 then begin
    out.re.(0) <- f0.re.(0);
    out.im.(0) <- f1.re.(0)
  end
  else begin
    let tb = tables out.n in
    let h = out.n / 4 in
    for k = 0 to h - 1 do
      let wr = tb.split_re.(k) and wi = tb.split_im.(k) in
      let tr = (f1.re.(k) *. wr) -. (f1.im.(k) *. wi) in
      let ti = (f1.re.(k) *. wi) +. (f1.im.(k) *. wr) in
      out.re.(k) <- f0.re.(k) +. tr;
      out.im.(k) <- f0.im.(k) +. ti;
      out.re.(k + h) <- f0.re.(k) -. tr;
      out.im.(k + h) <- f0.im.(k) -. ti
    done
  end

let split a =
  if a.n < 2 then invalid_arg "Fftc.split: degree 1";
  let halves = (create (a.n / 2), create (a.n / 2)) in
  split_into a halves;
  halves

let merge f0 f1 =
  let out = create (2 * f0.n) in
  merge_into (f0, f1) out;
  out

type t = { re : float array; im : float array }

let pi = 4.0 *. atan 1.0

(* Per-size tables, memoized: the bit-reversal permutation, cyclic-FFT
   roots e^{2πik/n} (k < n), coefficient twists e^{iπj/n}, and split/merge
   factors e^{iπ(2k+1)/n}.  Signing walks the tree thousands of times;
   recomputing cos/sin per butterfly dominated the profile before this
   cache. *)
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
  let bits =
    let rec go b v = if v <= 1 then b else go (b + 1) (v lsr 1) in
    go 0 n
  in
  let rev =
    Array.init n (fun i ->
        let r = ref 0 in
        for b = 0 to bits - 1 do
          if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
        done;
        !r)
  in
  let root_re = Array.make n 0.0 and root_im = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let ang = 2.0 *. pi *. float_of_int k /. float_of_int n in
    root_re.(k) <- cos ang;
    root_im.(k) <- sin ang
  done;
  let twist_re = Array.make n 0.0 and twist_im = Array.make n 0.0 in
  for j = 0 to n - 1 do
    let ang = pi *. float_of_int j /. float_of_int n in
    twist_re.(j) <- cos ang;
    twist_im.(j) <- sin ang
  done;
  let h = max 1 (n / 2) in
  let split_re = Array.make h 0.0 and split_im = Array.make h 0.0 in
  for k = 0 to h - 1 do
    let ang = pi *. float_of_int ((2 * k) + 1) /. float_of_int n in
    split_re.(k) <- cos ang;
    split_im.(k) <- sin ang
  done;
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

(* In-place iterative cyclic transform X_k = Σ_j x_j e^{sign·2πijk/n};
   [scale] divides by n afterwards (the inverse direction). *)
let cyclic (re : float array) (im : float array) ~sign ~scale =
  let n = Array.length re in
  if n > 1 then begin
    let tb = tables n in
    bit_reverse tb.rev re im;
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let stride = n / !len in
      let i = ref 0 in
      while !i < n do
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
    done
  end;
  if scale then begin
    let inv = 1.0 /. float_of_int n in
    for i = 0 to n - 1 do
      re.(i) <- re.(i) *. inv;
      im.(i) <- im.(i) *. inv
    done
  end

(* The forward transform twists coefficient j by e^{iπj/n}, turning the
   negacyclic evaluation points into a plain cyclic FFT: slot k holds the
   value at ζ_k = e^{iπ(2k+1)/n}, so ζ_k² is slot k of the half-size
   convention (what split/merge rely on) and -ζ_k is slot k + n/2. *)
let of_real (coeffs : float array) =
  let n = Array.length coeffs in
  let tb = tables n in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  for j = 0 to n - 1 do
    re.(j) <- coeffs.(j) *. tb.twist_re.(j);
    im.(j) <- coeffs.(j) *. tb.twist_im.(j)
  done;
  cyclic re im ~sign:1.0 ~scale:false;
  { re; im }

let of_int_poly a =
  let n = Array.length a in
  let coeffs = Array.make n 0.0 in
  for j = 0 to n - 1 do
    coeffs.(j) <- float_of_int a.(j)
  done;
  of_real coeffs

let to_real { re; im } =
  let n = Array.length re in
  let tb = tables n in
  let re = Array.copy re and im = Array.copy im in
  cyclic re im ~sign:(-1.0) ~scale:true;
  for j = 0 to n - 1 do
    re.(j) <- (re.(j) *. tb.twist_re.(j)) +. (im.(j) *. tb.twist_im.(j))
  done;
  re

let add a b =
  let n = Array.length a.re in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  for i = 0 to n - 1 do
    re.(i) <- a.re.(i) +. b.re.(i);
    im.(i) <- a.im.(i) +. b.im.(i)
  done;
  { re; im }

let sub a b =
  let n = Array.length a.re in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  for i = 0 to n - 1 do
    re.(i) <- a.re.(i) -. b.re.(i);
    im.(i) <- a.im.(i) -. b.im.(i)
  done;
  { re; im }

let mul a b =
  let n = Array.length a.re in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  for i = 0 to n - 1 do
    re.(i) <- (a.re.(i) *. b.re.(i)) -. (a.im.(i) *. b.im.(i));
    im.(i) <- (a.re.(i) *. b.im.(i)) +. (a.im.(i) *. b.re.(i))
  done;
  { re; im }

let div a b =
  let n = Array.length a.re in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let d = (b.re.(i) *. b.re.(i)) +. (b.im.(i) *. b.im.(i)) in
    re.(i) <- ((a.re.(i) *. b.re.(i)) +. (a.im.(i) *. b.im.(i))) /. d;
    im.(i) <- ((a.im.(i) *. b.re.(i)) -. (a.re.(i) *. b.im.(i))) /. d
  done;
  { re; im }

let adjoint a =
  let n = Array.length a.im in
  let im = Array.make n 0.0 in
  for i = 0 to n - 1 do
    im.(i) <- -.a.im.(i)
  done;
  { re = Array.copy a.re; im }

let scale a s =
  let n = Array.length a.re in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  for i = 0 to n - 1 do
    re.(i) <- s *. a.re.(i);
    im.(i) <- s *. a.im.(i)
  done;
  { re; im }

let split a =
  let n = Array.length a.re in
  assert (n >= 2);
  let tb = tables n in
  let h = n / 2 in
  let f0 = { re = Array.make h 0.0; im = Array.make h 0.0 } in
  let f1 = { re = Array.make h 0.0; im = Array.make h 0.0 } in
  for k = 0 to h - 1 do
    let ar = a.re.(k) and ai = a.im.(k) in
    let br = a.re.(k + h) and bi = a.im.(k + h) in
    f0.re.(k) <- 0.5 *. (ar +. br);
    f0.im.(k) <- 0.5 *. (ai +. bi);
    (* (f[k] - f[k+h]) · conj(ω_k) / 2, ω_k = e^{iπ(2k+1)/n}. *)
    let dr = 0.5 *. (ar -. br) and di = 0.5 *. (ai -. bi) in
    let wr = tb.split_re.(k) and wi = -.tb.split_im.(k) in
    f1.re.(k) <- (dr *. wr) -. (di *. wi);
    f1.im.(k) <- (dr *. wi) +. (di *. wr)
  done;
  (f0, f1)

let merge f0 f1 =
  let h = Array.length f0.re in
  let n = 2 * h in
  let tb = tables n in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  for k = 0 to h - 1 do
    let wr = tb.split_re.(k) and wi = tb.split_im.(k) in
    let tr = (f1.re.(k) *. wr) -. (f1.im.(k) *. wi) in
    let ti = (f1.re.(k) *. wi) +. (f1.im.(k) *. wr) in
    re.(k) <- f0.re.(k) +. tr;
    im.(k) <- f0.im.(k) +. ti;
    re.(k + h) <- f0.re.(k) -. tr;
    im.(k + h) <- f0.im.(k) -. ti
  done;
  { re; im }

let norm_sq a =
  let n = Array.length a.re in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (a.re.(i) *. a.re.(i)) +. (a.im.(i) *. a.im.(i))
  done;
  !acc /. float_of_int n

let create n = { re = Array.make n 0.0; im = Array.make n 0.0 }

let blit src dst =
  Array.blit src.re 0 dst.re 0 (Array.length src.re);
  Array.blit src.im 0 dst.im 0 (Array.length src.im)

let split_into a (f0, f1) =
  let n = Array.length a.re in
  let tb = tables n in
  let h = n / 2 in
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

let merge_into (f0, f1) out =
  let h = Array.length f0.re in
  let n = 2 * h in
  let tb = tables n in
  for k = 0 to h - 1 do
    let wr = tb.split_re.(k) and wi = tb.split_im.(k) in
    let tr = (f1.re.(k) *. wr) -. (f1.im.(k) *. wi) in
    let ti = (f1.re.(k) *. wi) +. (f1.im.(k) *. wr) in
    out.re.(k) <- f0.re.(k) +. tr;
    out.im.(k) <- f0.im.(k) +. ti;
    out.re.(k + h) <- f0.re.(k) -. tr;
    out.im.(k + h) <- f0.im.(k) -. ti
  done

(* Negative-wrapped-convolution NTT: the 2n-th root ψ is folded into the
   butterfly twiddles (stored in bit-reversed order), so the transform
   needs no separate twist pass and no explicit bit-reversal permutation
   — the forward (Cooley-Tukey) leaves its output in bit-reversed
   evaluation order, which the pointwise product and the inverse
   (Gentleman-Sande) consume directly.

   Arithmetic avoids hardware division entirely.  Every multiplication
   with an operand fixed by the plan uses a Shoup companion
   floor(w·2^32/q); the butterflies run *lazily* — values ride in
   [0, 23q) forward and [0, 4096q) inverse, far inside the 63-bit native
   int, so no per-butterfly conditional corrections are needed — and a
   single Barrett pass normalizes at the end.

   This matters beyond throughput: Sign verifies every signature it
   produces against the public key (fault hardening), so one negacyclic
   product rides on the latency of every signing call and has to fit the
   <3% defense-overhead budget of `bench fault`. *)

(* A literal rather than [Zq.q], so that ocamlopt folds it into
   immediates (q, 2q, q - 1 and the products by q in every butterfly):
   cross-module constants are not propagated when libraries are compiled
   [-opaque], as dune's default profile does.  ~15% off each transform. *)
let q = 12289
let () = assert (q = Zq.q)

type plan = {
  n : int;
  psi_rev : int array; (* ψ^brv(i): forward twiddles, bit-reversed order *)
  psi_rev_sh : int array;
  psi_inv_rev : int array; (* ψ^-brv(i): inverse twiddles *)
  psi_inv_rev_sh : int array;
  n_inv : int; (* final inverse scaling; the ψ^-i twist is in the GS pass *)
  n_inv_sh : int;
}

(* Shoup companion: with wsh = floor(w·2^32/q) and 0 <= a < 2^32,
   a·w − (a·wsh >> 32)·q lies in [0, q + a·q/2^32) ⊂ [0, 2q).  All
   intermediates fit the 63-bit native int: a·wsh < 2^27 · 2^32. *)
let shoup w = (w lsl 32) / q

(* Conditional subtract of q, from [0, 2q) to [0, q), without a branch:
   verify-after-sign runs these over fresh, effectively random values
   once per signature, where a data-dependent branch mispredicts about
   half the time. *)
let[@inline] csub r = r - (q land ((q - 1 - r) asr 62))

let shoup_mul a w wsh = csub ((a * w) - ((a * wsh) lsr 32 * q))

let build n =
  if n < 2 || n > 2048 || n land (n - 1) <> 0 then invalid_arg "Ntt.plan: n";
  let psi = Zq.primitive_root_2n n in
  let psi_inv = Zq.inv psi in
  let bits =
    let rec go b v = if v = 1 then b else go (b + 1) (v lsr 1) in
    go 0 n
  in
  let brv i =
    let r = ref 0 in
    for b = 0 to bits - 1 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
    done;
    !r
  in
  let psi_rev = Array.init n (fun i -> Zq.pow psi (brv i)) in
  let psi_inv_rev = Array.init n (fun i -> Zq.pow psi_inv (brv i)) in
  let n_inv = Zq.inv n in
  {
    n;
    psi_rev;
    psi_rev_sh = Array.map shoup psi_rev;
    psi_inv_rev;
    psi_inv_rev_sh = Array.map shoup psi_inv_rev;
    n_inv;
    n_inv_sh = shoup n_inv;
  }

(* Plans are immutable once built (the transforms copy their inputs and
   only read the twiddle tables), so one plan per degree is shared
   process-wide.  Verify-after-sign needs a plan for every signature;
   rebuilding the power tables each time costs far more than the
   transform itself.  Lock-free: a losing racer just publishes a
   duplicate that gets dropped. *)
let cache : (int * plan) list Atomic.t = Atomic.make []

let plan n =
  match List.assq_opt n (Atomic.get cache) with
  | Some p -> p
  | None ->
    let p = build n in
    let rec publish () =
      let cur = Atomic.get cache in
      match List.assq_opt n cur with
      | Some p' -> p'
      | None ->
        if Atomic.compare_and_set cache cur ((n, p) :: cur) then p
        else publish ()
    in
    publish ()

(* Values are kept in [0, q) at transform boundaries, so the common case
   of a reduction is a no-op range check; small centered values (signature
   coefficients) lift with one add, and only wild values pay a division. *)
let reduce_fast x =
  let r = x + (q land (x asr 62)) in
  if r >= 0 && r < q then r else Zq.reduce x

(* Barrett estimate for r < 2^39: with m = floor(2^40 / q) the quotient
   guess floor(r·m / 2^40) is off by at most one step, leaving a single
   conditional subtract.  All intermediates stay under 2^62 (r·m <
   2^39+27). *)
let barrett_m = (1 lsl 40) / q

let mul_red a b =
  let r = a * b in
  csub (r - ((r * barrett_m) lsr 40 * q))

(* In-place Cooley-Tukey pass, input natural order, output bit-reversed.
   Lazy bounds: the Shoup product v is in [0, 2q) without correction, so
   each stage grows the value bound by 2q — after log2 n <= 11 stages
   everything sits below 23q < 2^19; callers normalize (or feed a
   product whose Barrett analysis absorbs the slack).  The index
   arithmetic walks disjoint in-range pairs, hence the unchecked
   accesses. *)
let ntt_ct p a =
  let n = p.n in
  let psi = p.psi_rev and psish = p.psi_rev_sh in
  let t = ref n and m = ref 1 in
  let half = n lsr 1 in
  while !m < half do
    let t' = !t lsr 1 in
    t := t';
    let m' = !m in
    for i = 0 to m' - 1 do
      let j1 = 2 * i * t' in
      let s = Array.unsafe_get psi (m' + i) in
      let ssh = Array.unsafe_get psish (m' + i) in
      for j = j1 to j1 + t' - 1 do
        let u = Array.unsafe_get a j in
        let c = Array.unsafe_get a (j + t') in
        let v = (c * s) - ((c * ssh) lsr 32 * q) in
        Array.unsafe_set a j (u + v);
        Array.unsafe_set a (j + t') (u - v + (2 * q))
      done
    done;
    m := m' * 2
  done;
  (* last stage (t' = 1) flattened: one butterfly per adjacent pair with
     sequential twiddles — the generic nest would pay its outer-loop
     scaffolding per single-iteration inner loop here *)
  for i = 0 to half - 1 do
    let j = 2 * i in
    let s = Array.unsafe_get psi (half + i) in
    let ssh = Array.unsafe_get psish (half + i) in
    let u = Array.unsafe_get a j in
    let c = Array.unsafe_get a (j + 1) in
    let v = (c * s) - ((c * ssh) lsr 32 * q) in
    Array.unsafe_set a j (u + v);
    Array.unsafe_set a (j + 1) (u - v + (2 * q))
  done

(* In-place Gentleman-Sande pass, input bit-reversed and reduced, output
   natural order; folded ψ^-twist via psi_inv_rev and a final n^-1
   scale.  Lazy bounds: the sum path doubles per stage (<= 2048q for
   n = 2048), the product path resets below 2q; the pad 4096q ≡ 0
   (mod q) keeps the multiply operand non-negative, and the closing
   Shoup scale lands in [0, q). *)
let intt_gs p a =
  let n = p.n in
  let psi = p.psi_inv_rev and psish = p.psi_inv_rev_sh in
  let pad = 4096 * q in
  (* first stage (t' = 1) flattened, mirroring ntt_ct's last stage *)
  let half = n lsr 1 in
  for i = 0 to half - 1 do
    let j = 2 * i in
    let s = Array.unsafe_get psi (half + i) in
    let ssh = Array.unsafe_get psish (half + i) in
    let u = Array.unsafe_get a j in
    let v = Array.unsafe_get a (j + 1) in
    Array.unsafe_set a j (u + v);
    let d = u - v + pad in
    Array.unsafe_set a (j + 1) ((d * s) - ((d * ssh) lsr 32 * q))
  done;
  let t = ref 2 and m = ref half in
  while !m > 1 do
    let h = !m lsr 1 in
    let t' = !t in
    let j1 = ref 0 in
    for i = 0 to h - 1 do
      let s = Array.unsafe_get psi (h + i) in
      let ssh = Array.unsafe_get psish (h + i) in
      for j = !j1 to !j1 + t' - 1 do
        let u = Array.unsafe_get a j in
        let v = Array.unsafe_get a (j + t') in
        Array.unsafe_set a j (u + v);
        let d = u - v + pad in
        Array.unsafe_set a (j + t') ((d * s) - ((d * ssh) lsr 32 * q))
      done;
      j1 := !j1 + (2 * t')
    done;
    t := t' * 2;
    m := h
  done;
  for i = 0 to n - 1 do
    Array.unsafe_set a i (shoup_mul (Array.unsafe_get a i) p.n_inv p.n_inv_sh)
  done

(* Copy passes are explicit loops rather than Array.init: a closure
   invocation per element costs as much as the arithmetic at n = 64. *)
let copy_reduced p src =
  let a = Array.make p.n 0 in
  for i = 0 to p.n - 1 do
    Array.unsafe_set a i (reduce_fast (Array.unsafe_get src i))
  done;
  a

let forward p coeffs =
  if Array.length coeffs <> p.n then invalid_arg "Ntt.forward: length";
  let a = copy_reduced p coeffs in
  ntt_ct p a;
  (* Barrett pass normalizes the lazily-reduced values to [0, q). *)
  for i = 0 to p.n - 1 do
    let r = Array.unsafe_get a i in
    let r = r - ((r * barrett_m) lsr 40 * q) in
    Array.unsafe_set a i (csub r)
  done;
  a

let inverse p evals =
  if Array.length evals <> p.n then invalid_arg "Ntt.inverse: length";
  let a = copy_reduced p evals in
  intt_gs p a;
  a

let pointwise p fa fb =
  if Array.length fa <> p.n || Array.length fb <> p.n then
    invalid_arg "Ntt.pointwise: length";
  let out = Array.make p.n 0 in
  for i = 0 to p.n - 1 do
    Array.unsafe_set out i
      (mul_red
         (reduce_fast (Array.unsafe_get fa i))
         (reduce_fast (Array.unsafe_get fb i)))
  done;
  out

(* The verify-after-sign hot path: one negacyclic product against a
   fixed, already-transformed operand, in a single allocation.  The
   forward pass stays lazy (no normalize): its output is below 23q <
   2^19, [fb] is reduced, so the Barrett product sees r < 2^33 — well
   inside the 2^39 analysis — and reduces to [0, q) for the inverse
   pass. *)
let mul_with_forward p a fb =
  if Array.length a <> p.n || Array.length fb <> p.n then
    invalid_arg "Ntt.mul_with_forward: length";
  let w = copy_reduced p a in
  ntt_ct p w;
  for i = 0 to p.n - 1 do
    Array.unsafe_set w i
      (mul_red (Array.unsafe_get w i) (reduce_fast (Array.unsafe_get fb i)))
  done;
  intt_gs p w;
  w

let negacyclic_mul p a b = mul_with_forward p a (forward p b)

let invertible p a = Array.for_all (fun e -> e <> 0) (forward p a)

let ring_inv p a =
  let fa = forward p a in
  inverse p (Array.map Zq.inv fa)

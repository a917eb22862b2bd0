(** NTRUSolve: given small [f, g] in Z[x]/(x^n+1), find [F, G] with
    [f·G − g·F = q] — the hard half of Falcon key generation.

    Algorithm (as in the Falcon reference code): descend by the field norm
    [N(f) = f_e² − x·f_o²] to degree 1, solve the integer Bézout equation
    with an extended GCD, lift back up with [F = F'(x²)·g(−x)], and after
    every lift size-reduce [(F, G)] against [(f, g)] with Babai rounding
    computed on scaled floating-point FFTs. *)

val solve : q:int -> f:Polyz.t -> g:Polyz.t -> (Polyz.t * Polyz.t) option
(** [None] when the resultants share a factor with [q] (the caller draws a
    fresh [f, g]). *)

val egcd :
  Ctg_bigint.Zint.t ->
  Ctg_bigint.Zint.t ->
  Ctg_bigint.Zint.t * Ctg_bigint.Zint.t * Ctg_bigint.Zint.t
(** [(d, u, v)] with [u·a + v·b = d = gcd(a,b) >= 0]; iterative, safe for
    multi-thousand-bit inputs.  Exposed for tests. *)

val reduce : f:Polyz.t -> g:Polyz.t -> Polyz.t -> Polyz.t -> Polyz.t * Polyz.t
(** One full Babai size-reduction of [(F, G)] against [(f, g)]; exposed
    for tests.  Each pass computes the quotient
    [(F·adj f + G·adj g) / (f·adj f + g·adj g)] in the FFT domain on the
    top 53 bits of each operand, which puts it at scale [2^-s] for [s]
    the gap between the two operands' shifts.  It is scaled up by [2^m],
    [m = min s (40 − exponent of its largest coefficient)], rounded to
    [k], and [k·(f, g)·2^(s−m)] is subtracted, so a pass takes ~40 bits
    off [(F, G)] until [k] is at scale 0.  It stops there once [k] is all
    zero, when [(F, G)] is smaller than [(f, g)], or after 1000 passes.
    [f·G − g·F] is unchanged by every pass. *)

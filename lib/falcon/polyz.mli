(** Polynomials with arbitrary-precision integer coefficients in
    Z[x]/(x^n + 1) — the domain of NTRUSolve, where coefficients grow to
    thousands of bits during the recursive descent. *)

type t = Ctg_bigint.Zint.t array
(** Coefficient vector, degree index order, length = ring degree. *)

val of_int_array : int array -> t
val to_int_array : t -> int array
(** @raise Failure on overflow. *)

val zero : int -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
(** Negacyclic product, schoolbook (keygen-only code path).  When
    [max_bits a + max_bits b + ⌈log2 n⌉ < 62] every partial sum fits an
    OCaml int, and the loop runs on native ints; otherwise on [Zint]. *)

val mul_scalar : t -> Ctg_bigint.Zint.t -> t
val is_zero : t -> bool
val equal : t -> t -> bool

val adjoint : t -> t
(** [f*(x) = f(x^-1) mod x^n+1]: [f*_0 = f_0], [f*_i = -f_{n-i}]. *)

val galois : t -> t
(** [f(-x)]: negate odd coefficients. *)

val field_norm : t -> t
(** [N(f) = f_e² − x·f_o²] over Z[x]/(x^{n/2}+1), satisfying
    [N(f)(x²) = f(x)·f(−x)]. *)

val lift : t -> t
(** [f(x) ↦ f(x²)] from degree n to degree 2n. *)

val max_bits : t -> int
(** Largest coefficient magnitude in bits (for float scaling). *)

val reduce_mod_q : t -> q:int -> int array
(** Coefficients reduced to [[0, q)]. *)

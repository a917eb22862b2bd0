(** Complex FFT for the negacyclic ring R[x]/(x^n + 1), n a power of two.

    A real polynomial takes conjugate values at conjugate roots, so only
    half of them are kept: for n ≥ 2, [re]/[im] have length n/2 and slot
    k holds f(ζ_k), ζ_k = e^{iπ(4k+1)/n} (the roots with ζ^{n/2} = i).
    Then ζ_k² is slot k of degree n/2 and −ζ_k is slot k + n/4, which is
    what {!split}/{!merge} pair.  n = 1 is one real slot ([im] = [[|0.|]]).
    See DESIGN.md §5.  All operations but the [_into] ones are
    out-of-place. *)

type t = { n : int;  (** Ring degree. *) re : float array; im : float array }

val of_real : float array -> t
(** Forward FFT of n real coefficients. *)

val of_int_poly : int array -> t

val to_real : t -> float array
(** Inverse FFT: the n real coefficients. *)

val round_to_int : t -> int array
(** [to_real] rounded to the nearest integers, without the n-float
    intermediate. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Pointwise (ring product). *)

val div : t -> t -> t
val adjoint : t -> t
(** Pointwise conjugate = FFT of [f*(x^-1)]. *)

val scale : t -> float -> t

val split : t -> t * t
(** Falcon's splitfft: [f(x) = f0(x²) + x·f1(x²)], both halves of degree
    n/2.  Requires n ≥ 2; at n = 2 the halves are the slot's real and
    imaginary parts. *)

val merge : t -> t -> t
(** Inverse of {!split}. *)

val norm_sq : t -> float
(** Σ|f_j|² over coefficients = (2/n)·Σ|slot_k|² (Parseval, each slot
    standing for itself and its conjugate); f_0² at n = 1. *)

(** {2 In-place variants for the signing hot path}

    ffSampling visits ~2N nodes per signature; these write into caller
    buffers so the walk allocates nothing. *)

val create : int -> t
(** Zeroed value of degree n (max 1 (n/2) slots). *)

val blit : t -> t -> unit
(** [blit src dst]. *)

val split_into : t -> t * t -> unit
(** As {!split}, into two preallocated values of half the degree. *)

val merge_into : t * t -> t -> unit
(** As {!merge}, into a preallocated value of twice the degree. *)

(** Arbitrary-precision signed integers on top of {!Nat}.

    Used by Falcon key generation (NTRUSolve works on polynomials whose
    coefficients grow to thousands of bits) and by exact probability
    computations. *)

type t

val zero : t
val one : t
val minus_one : t
val of_int : int -> t
val to_int : t -> int
(** @raise Failure if the value does not fit. *)

val of_nat : Nat.t -> t
val to_nat : t -> Nat.t
(** Absolute value as a {!Nat.t}. *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val shift_left : t -> int -> t

val ediv_rem : t -> t -> t * t
(** Euclidean division: [a = q*b + r] with [0 <= r < |b|]. *)

val fdiv : t -> t -> t
(** Floor division (rounds toward negative infinity). *)

val cdiv : t -> t -> t
(** Ceiling division (rounds toward positive infinity). *)

val rounded_div : t -> t -> t
(** Division rounded to the nearest integer (ties toward +inf). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val is_zero : t -> bool
val num_bits : t -> int
val to_string : t -> string
val of_string : string -> t
val to_float : t -> float
(** Best-effort conversion; may overflow to infinity for huge values. *)

val pp : Format.formatter -> t -> unit

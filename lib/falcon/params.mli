(** Falcon parameter sets (round-1 style, binary number fields, σ = 2 base
    sampler), matching the paper's Table 1 rows.

    These parameters reproduce the scheme's {e shape} — ring degree, q,
    sampler call counts, signature sizes; they are NOT a security-audited
    Falcon implementation (see DESIGN.md: the base-sampler plug replaces
    Falcon's variable-σ SamplerZ with the paper's fixed-σ sampler and
    randomized center rounding). *)

type level = Level1 | Level2 | Level3

type t = {
  level : level;
  n : int;  (** Ring degree N: 256 / 512 / 1024. *)
  q : int;  (** Modulus 12289. *)
  sigma_fg : float;  (** Key polynomial std dev: 1.17·sqrt(q / 2N). *)
  salt_bytes : int;  (** 40, as in Falcon. *)
  max_sign_attempts : int;
}

val level1 : t
val level2 : t
val level3 : t
val all : t list
val name : t -> string

val custom : n:int -> t
(** Reduced-degree instance (N a power of two ≥ 4) for fast tests. *)

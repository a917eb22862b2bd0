(** Keccak-f[1600] sponge with the SHAKE128/SHAKE256 XOF instantiations.

    SHAKE128 is used for Falcon's hash-to-point and as the alternative PRNG
    in the paper's Sec. 7 overhead experiment (Keccak vs ChaCha). *)

type xof

val shake128 : bytes -> xof
(** Absorb the whole input and switch to squeezing. *)

val shake256 : bytes -> xof

val squeeze : xof -> int -> bytes
(** Produce the next [n] output bytes; may be called repeatedly. *)

val squeeze_into : xof -> bytes -> unit
(** Overwrite the whole buffer with the next output bytes ([squeeze]
    without the allocation). *)

val permutations : xof -> int
(** Number of Keccak-f[1600] permutations run so far (cost accounting). *)

val shake128_digest : bytes -> int -> bytes
(** One-shot convenience: [shake128_digest msg n]. *)

val shake256_digest : bytes -> int -> bytes

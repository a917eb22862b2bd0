(** ChaCha20 stream cipher (RFC 7539 block function), used as the
    pseudorandom generator for sampling — the same choice as the Falcon
    reference implementation and the paper's Sec. 7 discussion. *)

type t

val create : key:bytes -> nonce:bytes -> t
(** [key] is 32 bytes, [nonce] is 12 bytes; the block counter starts at 0.
    @raise Invalid_argument on wrong lengths. *)

val of_seed : string -> t
(** Deterministic instance for tests and benchmarks: the seed string is
    hashed into key and nonce with a simple expansion. *)

val key_of_seed : string -> bytes
(** The 32-byte key [of_seed] would use, without the nonce.  Lets callers
    (the engine's stream forking) pair one master key with per-worker
    nonces so that parallel lanes draw disjoint keystreams. *)

val block_size : int
(** 64 bytes. *)

val block_into : t -> int -> bytes -> int -> unit
(** [block_into t counter dst off] writes the raw keystream block for
    [counter] to [dst.[off .. off + 63]] without allocating.
    @raise Invalid_argument if the range does not fit in [dst]. *)

val block : t -> int -> bytes
(** [block t counter] is the raw 64-byte keystream block ({!block_into}
    into a fresh buffer). *)

val next_bytes_into : t -> bytes -> int -> int -> unit
(** [next_bytes_into t dst off n] writes the next [n] keystream bytes to
    [dst.[off .. off + n - 1]].  Whole blocks are generated in place.
    @raise Invalid_argument if the range does not fit in [dst]. *)

val next_bytes : t -> int -> bytes
(** Stateful: return the next [n] keystream bytes. *)

val blocks_generated : t -> int
(** Number of 64-byte blocks produced so far (PRNG cost accounting). *)

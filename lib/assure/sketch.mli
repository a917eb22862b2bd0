(** Magnitude-count sketches — the state the drift monitors accumulate.

    A sketch is a plain count vector over the folded support [0..support]
    plus an overflow bin for magnitudes beyond it, so it is exact (no
    approximation), O(support) in memory, and {e mergeable}: [merge] is
    pointwise addition, hence commutative and associative.  That is the
    property the engine hook leans on — per-chunk contributions folded in
    any order, from any number of worker domains, produce the same sketch
    as a single-domain pass over the same samples (test_assure pins this
    down).

    A [t] is not thread-safe on its own; {!Drift} serializes access with a
    mutex. *)

type t

val create : support:int -> t
(** All-zero sketch for magnitudes [0..support]. *)

val add : t -> int -> unit
(** Fold one {e signed} sample; the magnitude is its absolute value
    (folded distribution, matching {!Ctg_stats.Distance.exact_probabilities}'s
    indexing). *)

val add_all : t -> int array -> unit

val add_sub : t -> int array -> pos:int -> len:int -> unit
(** [add_all] over the slice [a.(pos) .. a.(pos+len-1)] without copying —
    the allocation-free path behind {!Drift.observe_sub}.  No sample may
    be [min_int] (sampler output is bounded by the tail cut): its
    magnitude is negative and is not bounds-checked.
    @raise Invalid_argument when the range does not fit [a]. *)

val total : t -> int
(** Samples folded so far (including overflow). *)

val overflow : t -> int
(** Samples whose magnitude exceeded [support]: [total] minus the
    in-range counts, O(support). *)

val count : t -> int -> int
(** Occurrences of one magnitude. *)

val merge : t -> t -> t
(** Fresh sketch holding both inputs' counts; inputs unchanged.
    @raise Invalid_argument on support mismatch. *)

val absorb : t -> t -> unit
(** [absorb dst src] folds [src]'s counts into [dst] in place ([src]
    unchanged) — the allocation-free merge the drift monitor uses at
    window boundaries.
    @raise Invalid_argument on support mismatch. *)

val equal : t -> t -> bool

val reset : t -> unit

val observed : t -> int array
(** Counts over [0..support] with the overflow bin appended — the
    observed vector handed to {!Ctg_stats.Chi_square.test}. *)

val observed_into : t -> int array -> unit
(** {!observed} into an array of length [support + 2], without allocating.
    @raise Invalid_argument on any other length. *)

val empirical : t -> float array
(** Relative frequencies over [0..support] (overflow excluded); zeros when
    empty. *)

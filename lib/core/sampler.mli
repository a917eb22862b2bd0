(** Public API: constant-time discrete Gaussian samplers compiled to
    bitsliced Boolean programs.

    {[
      let s = Sampler.create ~sigma:"2" ~precision:128 ~tail_cut:13 () in
      let rng = Ctg_prng.(Bitstream.of_chacha (Chacha20.of_seed "demo")) in
      let z = Sampler.sample s rng        (* one signed sample *)
      let zs = Sampler.batch_signed s rng (* 63 samples per program run *)
    ]} *)

type method_ =
  | Split_minimized  (** This paper: sublist split + exact minimization. *)
  | Simple  (** The prior-work baseline of Table 2. *)

type t

val create :
  ?method_:method_ ->
  ?options:Compile.options ->
  sigma:string ->
  precision:int ->
  tail_cut:int ->
  unit ->
  t
(** Runs the full pipeline of the paper's Fig. 4: probability matrix →
    list L → sublists → minimized Boolean functions → combined constant-
    time program.  [Split_minimized] with default options is the paper's
    construction. *)

val of_enum : ?method_:method_ -> ?options:Compile.options -> Ctg_kyao.Leaf_enum.t -> t
(** Reuse an existing leaf enumeration (saves the table rebuild when
    comparing compilers on the same σ). *)

val clone : t -> t
(** A cheap copy sharing the compiled program, matrix and enumeration but
    with private scratch registers and sample buffers.  The mutable state
    of [t] is per-instance, so each domain of a parallel engine clones the
    registry's master sampler instead of re-running the compile pipeline;
    clones of the same master produce identical output on identical bit
    streams. *)

val batch_magnitude : t -> Ctg_prng.Bitstream.t -> int array
(** 63 magnitudes from one bitsliced program evaluation.  Lanes whose walk
    did not terminate within the precision (probability < 2^-117 at Falcon
    parameters) are resampled with the reference walk. *)

val batch_signed_into : t -> Ctg_prng.Bitstream.t -> int array -> int -> unit
(** [batch_signed_into t rng dst off] writes one batch of 63 signed
    samples to [dst.(off) .. dst.(off + 62)] without allocating:
    magnitudes as {!batch_magnitude}, then one word of sign bits.
    @raise Invalid_argument if the range does not fit in [dst]. *)

val batch_signed : t -> Ctg_prng.Bitstream.t -> int array
(** {!batch_signed_into} a fresh array. *)

val fill : t -> Ctg_prng.Bitstream.t -> int array -> pos:int -> len:int -> unit
(** [fill t rng dst ~pos ~len] writes [len] signed samples to
    [dst.(pos) ..], one batch after another: the same samples as
    concatenated {!batch_signed} calls truncated to [len], with whole
    batches written in place.
    @raise Invalid_argument if the range does not fit in [dst]. *)

val sample : t -> Ctg_prng.Bitstream.t -> int
(** Single signed sample from an internal buffer refilled per batch. *)

val sample_magnitude : t -> Ctg_prng.Bitstream.t -> int

val program : t -> Gate.t
val gate_count : t -> int
val sample_bits : t -> int
val matrix : t -> Ctg_kyao.Matrix.t
val enum : t -> Ctg_kyao.Leaf_enum.t
val sigma : t -> string

val resamples : t -> int
(** Lanes this instance has rescued with the scalar fallback walk — the
    sampler's one declared non-constant-time escape.  Monitors read the
    delta per batch to tell declared fallbacks apart from genuine
    constant-time violations.  Per-instance (clones start at 0). *)

val digest : t -> int64
(** {!Gate.digest} of the program, recorded at creation.  Clones share
    the program and therefore the digest. *)

val integrity_ok : t -> bool
(** Recompute the program digest and compare with the one recorded at
    creation: [false] means the gate table was corrupted in memory after
    compilation.  O(gates); {!Ctg_engine.Selftest} runs it before the
    known-answer vectors. *)

val eval_bits : t -> bool array -> int * bool
(** Run the compiled program on an explicit bit string (equivalence
    testing against {!Ctg_kyao.Column_sampler.walk_bits}). *)

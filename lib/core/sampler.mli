(** Public API: constant-time discrete Gaussian samplers compiled to
    bitsliced Boolean programs.

    {[
      let s = Sampler.create ~sigma:"2" ~precision:128 ~tail_cut:13 () in
      let rng = Ctg_prng.(Bitstream.of_chacha (Chacha20.of_seed "demo")) in
      let z = Sampler.sample s rng        (* one signed sample *)
      let zs = Sampler.batch_signed s rng (* 63 samples per program run *)
    ]} *)

val paper_keys : (string * int) list
(** The (σ, precision) pairs the repo serves and measures by default, all
    at tail cut 13: the paper's σ ∈ {1, 2, 6.15543} at the Falcon precision
    128 and σ=215 at precision 16 (its 128-bit enumeration has ~112k
    leaves; 16 bits already give a 5k-gate program).  The build generates
    a straight-line kernel for each. *)

type t

val create : sigma:string -> precision:int -> tail_cut:int -> unit -> t
(** Runs the full pipeline of the paper's Fig. 4: probability matrix →
    list L → sublists → minimized Boolean functions → combined constant-
    time program, compiled by {!Compile.compile} with
    {!Compile.default_options} (the paper's construction).  The Table 2
    baseline and the ablations call {!Compile_simple} and {!Compile}
    directly. *)

val of_enum : Ctg_kyao.Leaf_enum.t -> t
(** {!create} on an existing leaf enumeration (saves the table rebuild). *)

val clone : t -> t
(** A cheap copy sharing the compiled program, matrix, enumeration and
    the evaluator's decoded gate table ({!Bitslice.fork}), with a private
    register file and sample buffers: it allocates words in proportion to
    one register per gate, and decodes nothing.  The mutable state of [t]
    is per-instance, so each domain of a parallel engine clones the
    registry's master sampler instead of re-running the compile pipeline;
    clones of the same master produce identical output on identical bit
    streams. *)

val with_kernel : t -> (int array -> unit) -> t
(** A {!clone} that evaluates its program with [kernel] (through
    {!Bitslice.eval_kernel}) instead of the interpreter; its clones keep
    it.  [kernel] must be the code {!Codegen.to_ocaml} generated from this
    very program: bind by {!digest}, as the engine's registry does. *)

val has_kernel : t -> bool
(** Whether a generated kernel is bound ({!with_kernel}). *)

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
    testing against {!Ctg_kyao.Column_sampler.walk_bits}), through the
    bound kernel when there is one, so self-tests exercise the code that
    serves. *)

(** Per-sampler known-answer self-test.

    A compiled sampler is a table of gates sitting in memory for the
    lifetime of the process; a bit flip in it (rowhammer, bad DIMM, a
    deliberate fault) silently deforms the output distribution — exactly
    the defect class the "Ratio Attack on G+G" line of work turns into key
    recovery.  The self-test replays a fixed set of input bit strings
    (two structural vectors plus Splitmix-derived ones from a constant
    seed, so every run and every process checks the {e same} vectors)
    through the compiled program (through its generated kernel when one is
    bound, the code that serves) and demands bit-exact agreement with the
    trusted Knuth-Yao column walk over the sampler's own probability
    matrix: terminating strings must yield the same magnitude, and
    non-terminating ones must lower the valid flag.

    Before any vector runs, the gate-table integrity digest is checked
    ({!Ctgauss.Sampler.integrity_ok}): the fingerprint recorded at compile
    time must match a fresh recomputation.  The digest catches every
    post-compile corruption — including flips whose effect is confined to
    input strings the sampled vectors never visit — while the vectors
    additionally pin the {e semantics} against the reference walk, which
    a digest alone cannot (it would bless a miscompiled table).

    {!Registry.lookup} runs this after every compile and {!Registry.revalidate}
    re-runs it over the cache; {!Pool.create} uses it to decide whether to
    degrade to the constant-time CDT fallback. *)

type failure = {
  sigma : string;
  index : int;
      (** Index of the failing KAT vector, or [-1] when the gate-table
          integrity digest ({!Ctgauss.Sampler.integrity_ok}) already
          disagreed and no vector was run. *)
  expected : int option;  (** Reference magnitude; [None] = unterminated. *)
  got : int option;  (** Compiled magnitude; [None] = invalid flag. *)
}

exception Failed of failure

val run : ?strings:int -> Ctgauss.Sampler.t -> (unit, failure) result
(** [strings] defaults to 512 vectors — sub-millisecond at Falcon
    parameters, and ample to catch any single-gate corruption that
    survives structural validation. *)

val check : ?strings:int -> Ctgauss.Sampler.t -> unit
(** @raise Failed on the first disagreeing vector. *)

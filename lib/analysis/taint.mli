(** Secret-taint / dataflow verification over {!Ctgauss.Gate} programs.

    In this IR every input bit is secret (the random bits that decide the
    sample), so the property to verify is structural: the program must be
    a well-formed straight line of AND/OR/XOR/NOT/const gates — no other
    instruction kind exists, and {!Ctgauss.Gate.validate} rejects register
    abuse — which makes evaluation branch-free and memory-access-oblivious
    for {e every} input, the paper's constant-time-by-construction
    argument made checkable instead of asserted.

    On top of the verdict, the pass computes the dataflow facts the lint
    rules and reports consume: per-instruction liveness (does the result
    reach an output or the valid flag), the input-support cone of every
    output, and a census of gate kinds. *)

type census = {
  ands : int;
  ors : int;
  xors : int;
  nots : int;
  consts : int;
}

type t

val analyze : Ctgauss.Gate.t -> t

val verified : t -> (unit, string) result
(** [Ok ()] iff the program validates: the branch-free fragment proof.
    All other accessors are still meaningful on [Error] programs as long
    as indices are in range. *)

val census : t -> census
val live : t -> bool array
(** Per-instruction: result can reach an output or the valid flag. *)

val dead_instrs : t -> int list
val unused_inputs : t -> int list
(** Input variables no live instruction or output reads.  Expected at
    full precision — strings longer than the deepest leaf never decide
    anything — so this is reporting, not an error. *)


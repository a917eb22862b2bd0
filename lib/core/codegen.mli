(** Source-code emission for compiled samplers — the deliverable the paper
    promises as a public tool ("we will provide a tool that implements the
    strategies mentioned here").  The generated C uses only bitwise
    operators on [uint64_t]; the generated OCaml writes {!Bitslice}'s
    register file, so {!Bitslice.eval_kernel} runs it in place of the
    interpreter. *)

val to_c : ?name:string -> Gate.t -> string
(** A self-contained C function
    [void <name>(const uint64_t *b, uint64_t *out)] where [b] has
    [num_vars] bitsliced words and [out] receives the output bit words
    (plus the valid word last, when present). *)

val to_ocaml : ?name:string -> Gate.t -> string
(** Straight-line OCaml, 63 lanes per word: a function
    [<name> : int array -> unit] over a register file laid out like
    {!Bitslice.scratch}'s — the [num_vars] input words at [0 ..], gate [i]
    at [num_vars + i].  It calls one [<name>_c<k>] function per chunk of at
    most 512 gates, one [let] per gate; every output, the valid flag and
    each value a later chunk reads are stored at their register index.
    The code is [land]/[lor]/[lxor]/[lnot] on constant-indexed registers
    only, with no branch, so it is constant time by construction; the one
    [if] checks the register file's length on entry. *)

val to_dot : ?name:string -> Gate.t -> string
(** Graphviz rendering of the gate DAG (small programs only).  Output is
    deterministic — node declarations then edges, both in register order —
    and the graph name and labels are escaped, so generated files can be
    diffed as CI artifacts. *)

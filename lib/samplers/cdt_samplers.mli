(** The three cumulative-distribution-table samplers the paper benchmarks
    against in Table 1.  All share one {!Cdt_table} built from the same
    probability matrix as the bitsliced sampler, so any throughput
    difference is purely algorithmic. *)

val binary_search : Cdt_table.t -> Sampler_sig.instance
(** Peikert-style CDT with binary search [26]: non-constant time (the
    search path and compare costs depend on the draw). *)

val byte_scan : Cdt_table.t -> Sampler_sig.instance
(** Byte-scanning CDT [13]: linear scan with early-exit byte compares —
    the fastest non-constant-time sampler in the paper's Table 1. *)

val linear_ct : Cdt_table.t -> Sampler_sig.instance
(** Linear-search constant-time CDT [7]: every call scans the whole table
    with branch-free full-width compares. *)

val zoo : Ctgauss.Sampler.t -> Sampler_sig.instance list
(** Every sampler the constant-time audits and the acceptance battery
    sweep, all over the matrix of the given bitsliced sampler: first
    {!Sampler_sig.of_bitsliced} of a {!Ctgauss.Sampler.clone} of it (the
    clone keeps a bound kernel, so a [Ctg_engine.Registry.lookup] sampler
    audits the code that serves), then {!linear_ct}, {!binary_search}
    and {!byte_scan} over its CDT, then the non-constant-time
    {!Sampler_sig.knuth_yao_reference} control. *)

(** Generated straight-line kernels ({!Ctgauss.Codegen.to_ocaml}) for
    {!Ctgauss.Sampler.paper_keys}, built from the source at build time. *)

val find : int64 -> (int array -> unit) option
(** The kernel generated from the program with this {!Ctgauss.Gate.digest},
    if it is one of the paper keys' programs. *)

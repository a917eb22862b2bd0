(** Bitsliced evaluation of gate programs (the paper's Sec. 3.2 SIMD trick).

    Each register holds one native [int]: 63 independent evaluation lanes.
    Passing words of all-zeros/all-ones per lane bit reproduces single-bit
    evaluation, which is how the equivalence tests drive it. *)

val lanes : int
(** 63 on a 64-bit OCaml runtime. *)

val all_ones : int
(** The lane word with every lane set. *)

type scratch
(** Reusable register file to keep the hot path allocation-free. *)

val scratch : Gate.t -> scratch
(** Decode the program into the evaluator's gate table and allocate a
    register file for it. *)

val fork : scratch -> scratch
(** A scratch for the same program that shares [s]'s decoded gate table:
    only the register file and the output words are fresh.  The table is
    never written after {!scratch} builds it, so forks may run on other
    domains.  Like [s], a fork evaluates the program as it was decoded;
    only a new {!scratch} sees a later in-place edit of it. *)

val eval : Gate.t -> scratch -> inputs:int array -> unit
(** Run the program; [inputs] has [num_vars] lane words. *)

val eval_kernel : (int array -> unit) -> scratch -> inputs:int array -> unit
(** [eval_kernel k s ~inputs] runs a kernel generated from the program
    [s] was made for ({!Codegen.to_ocaml}) in place of {!eval}: the same
    register values, read back with the same functions below. *)

val output : Gate.t -> scratch -> int -> int
(** Lane word of output bit [i] after {!eval}. *)

val valid_word : Gate.t -> scratch -> int
(** Lane word of the termination flag ([all_ones] if the program carries
    no valid bit). *)

val magnitudes_into : Gate.t -> scratch -> int array -> int -> unit
(** [magnitudes_into p s dst off] transposes the output bits into 63
    per-lane sample magnitudes at [dst.(off) .. dst.(off + 62)].
    @raise Invalid_argument if the range does not fit in [dst]. *)

val magnitudes : Gate.t -> scratch -> int array
(** {!magnitudes_into} a fresh array. *)

val eval_single : ?kernel:(int array -> unit) -> Gate.t -> bool array -> int * bool
(** Single evaluation on one bit string: [(magnitude, valid)], through
    [kernel] ({!eval_kernel}) when given. *)

(** The paper's Sec. 5.1: sort list L by the all-ones prefix length κ and
    split it into sublists l_κ.  Within sublist κ the first κ+1 bits are
    fixed (1^κ 0), so each output bit is a function of at most Δ payload
    bits — small enough to minimize exactly. *)

type entry = {
  kappa : int;  (** κ: this sublist's all-ones prefix length. *)
  window : int;
      (** Payload window width: [min Δ (n - 1 - κ)] variables, mapping
          payload variable [p] to input bit [b_{κ+1+p}]. *)
  leaves : Ctg_kyao.Leaf_enum.leaf list;
  bit_tables : Ctg_boolmin.Truth_table.t array;
      (** [bit_tables.(ι)]: table for sample bit ι over the window
          variables.  Uncovered payload patterns are don't-cares. *)
  hit_table : Ctg_boolmin.Truth_table.t;
      (** On where some leaf covers the pattern (walk terminates), off
          where none does; no don't-cares. *)
}

type t = {
  enum : Ctg_kyao.Leaf_enum.t;
  sample_bits : int;  (** m: bits needed for the largest magnitude. *)
  entries : entry array;  (** Index κ = 0 .. max κ; empty sublists included. *)
}

val build : Ctg_kyao.Leaf_enum.t -> t

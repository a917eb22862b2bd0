(** Dense boolean view of the probability matrix, plus per-column data
    needed by the Knuth-Yao walk.

    Rows are sample magnitudes [0..support]; columns are binary digit
    positions [0..precision-1] (column [i] is the [2^-(i+1)] digit). *)

type t = {
  sigma : string;
  precision : int;
  support : int;
  bits : bool array array;  (** [bits.(row).(col)] *)
  col_weight : int array;  (** [h_i] per column. *)
  rows : int array array;
      (** [rows.(col).(rank)] is {!row_for}[ ~col ~rank], precomputed. *)
}

val of_table : Ctg_fixed.Gaussian_table.t -> t

val create : sigma:string -> precision:int -> tail_cut:int -> t
(** Convenience: {!Ctg_fixed.Gaussian_table.create} then {!of_table}. *)

val row_for : t -> col:int -> rank:int -> int
(** The sample value of the leaf with distance [rank] at level [col]: the
    [(rank+1)]-th set row scanning from the bottom row ([support]) upward,
    exactly as algorithm 1 subtracts.  [rank] must be in [[0, h_col)].
    O(1): a lookup in [rows]. *)

val leaves_total : t -> int
(** Σ h_i — size of the paper's list L. *)

(** The paper's Fig. 4 flowchart as an inspectable value: every stage of
    σ → f^ι_n with its intermediate artifact and a size/cost summary.
    Drives the [fig4] bench target and the [custom_sigma] example. *)

type stage_report = { stage : string; detail : string }

type t = {
  matrix : Ctg_kyao.Matrix.t;
  enum : Ctg_kyao.Leaf_enum.t;
  sublists : Sublist.t;
  program : Gate.t;
  simple_program : Gate.t;  (** The [21]-style baseline on the same L. *)
  reports : stage_report list;  (** In execution order. *)
}

val run : sigma:string -> precision:int -> tail_cut:int -> unit -> t

val pp : Format.formatter -> t -> unit
(** Print the flowchart with measured sizes at each arrow. *)

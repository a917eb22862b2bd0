(** The analyzer's driver: for one (sigma, precision, tail_cut) target it
    compiles the full option matrix, runs every pass, and folds the
    results into proofs + findings suitable for the [ctg_lint] CLI and
    CI.  What is {e proved} (for all [2^n] inputs, by BDD):

    - optimized compiler == naive reference, for every combination of
      the [share_selectors] / [exact_minimize] / [flatten_onehot]
      ablation options (valid flags equal everywhere; outputs equal on
      every terminating string);
    - the Eqn. 2 selectors are one-hot and exhaustive on terminating
      strings (what justifies the flattened-OR recombination);
    - both programs are in the branch-free AND/OR/XOR/NOT fragment with
      well-formed register use (taint verification).

    What is {e linted}: dead gates, missed CSE, missed constant folding,
    unused inputs, and gate/depth budgets against the committed
    [BENCH_gates.json] baseline. *)

type target = { sigma : string; precision : int; tail_cut : int }

val default_targets : target list
(** The Table-2 sigma set {1, 2, 6.15543, 215} at test precision. *)

type result = {
  target : target;
  gates : int;
  depth : int;
  simple_gates : int;
  proofs : Report.proof list;
  findings : Report.finding list;
  bdd_nodes : int;  (** Analysis cost: nodes allocated by the prover. *)
}

val run : ?slack_pct:float -> ?baseline:Budget.t -> target -> result
(** [baseline] enables the gate-budget check. *)

val ok : result -> bool
(** All proofs hold and no [Warning]/[Error] finding fired. *)

val measure : target -> Budget.entry
(** Budget measurement for baseline (re)generation. *)

val pp : Format.formatter -> result -> unit
val to_json : result -> Ctg_obs.Jsonx.t

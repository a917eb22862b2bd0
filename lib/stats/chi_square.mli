(** Pearson chi-square goodness-of-fit with a p-value from the regularized
    upper incomplete gamma function (series + continued fraction, as in
    standard numerical practice). *)

type result = { statistic : float; dof : int; p_value : float }

val test : observed:int array -> expected:float array -> result
(** Bins with expected count below 5 are merged, the usual validity rule.
    Merge direction: the array is scanned {e left to right}, accumulating
    consecutive bins until the accumulated expected count reaches 5, at
    which point the group is emitted; a trailing group that never reaches 5
    (the right support edge) is folded into the {e last emitted} group
    rather than dropped, so every observation contributes to the statistic
    exactly once.  At the left edge this means small leading bins merge
    {e rightwards} into their successors; at the right edge small trailing
    bins merge {e leftwards} into the final group — the property tests in
    test_stats pin both edges down.  Degrees of freedom are
    [max 1 (groups - 1)].  [expected] are counts, not probabilities. *)

type plan
(** The bin grouping {!test} derives from [expected] alone. *)

val plan : expected:float array -> plan

val test_planned : plan -> observed:int array -> result
(** [test_planned (plan ~expected) ~observed] is [test ~observed ~expected]
    (bit for bit), without rebuilding the grouping or allocating: for
    callers that test many observation vectors against one expectation.
    @raise Invalid_argument when [observed] has a different length. *)

val gammq : float -> float -> float
(** Regularized upper incomplete gamma Q(a, x); exposed for testing. *)

(** High-precision [e^-x] for the Gaussian weight ρ_σ(v) = e^(-v²/2σ²).

    The computation uses argument reduction (halve [x] until it is below 1),
    an alternating Taylor series evaluated in fixed point, and repeated
    squaring to undo the reduction.  With [g] guard bits the result is
    accurate to within a few units in the last place of the target
    precision; callers should allocate ~96 guard bits (see DESIGN.md). *)

val exp_neg : Fixed.t -> Fixed.t
(** [exp_neg x] is [e^-x] at the precision of [x], for [x >= 0]. *)

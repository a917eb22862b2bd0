(** Exact minimum cover selection: essential primes first, then Petrick's
    method (product-of-sums expansion with absorption) on the cyclic core.
    This plays the role of Espresso's [-Dso -S1] exact mode in the paper's
    flow.  Falls back to {!Greedy_cover} when the core is too large. *)

val cover : ones:int list -> primes:Cube.t list -> Cube.t list
(** Minimum-cardinality cover of [ones] (ties broken by literal count).
    Assumes every minterm of [ones] is covered by some prime. *)

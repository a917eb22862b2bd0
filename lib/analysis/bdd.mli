(** Reduced ordered binary decision diagrams, self-contained (no external
    dependency), sized for the analyzer's workloads: programs over the
    random input bits [b_0 .. b_{n-1}] at test precision.

    The variable order is fixed to the bit-consumption order of the
    Knuth-Yao walk ([b_0] at the root) — by Theorem 1 every terminating
    string is decided by a prefix, so this order keeps the diagrams of the
    compiled samplers shallow.

    Nodes are hash-consed in a manager, so two BDDs built in the same
    manager represent the same Boolean function iff their handles are
    equal — equality of compiled programs becomes an [( = )] on ints,
    a proof over all [2^n] inputs at once. *)

type man
(** Node store + operation caches.  All [t] values are relative to the
    manager that built them. *)

type t = private int
(** BDD handle.  [( = )] is functional equivalence within one manager. *)

val create : num_vars:int -> man
val num_vars : man -> int

val zero : t
val one : t
val var : man -> int -> t
(** The projection function of input bit [i]; [0 <= i < num_vars]. *)

val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t
val bnot : man -> t -> t

val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool

val eval : man -> t -> bool array -> bool
(** Evaluate under an assignment ([assignment.(i)] = value of [b_i];
    missing trailing variables read as [false]). *)

val any_sat : man -> t -> bool array option
(** A satisfying assignment over all [num_vars] variables ([None] iff the
    function is constant false) — the counterexample extractor: to refute
    [f = g], ask for [any_sat (bxor f g)]. *)

val sat_count : man -> t -> float
(** Number of satisfying assignments over the manager's [num_vars]
    variables (float: callers report fractions at n up to 128). *)

val size : man -> t -> int
(** Reachable node count of one BDD (diagram size, not program size). *)

val node_count : man -> int
(** Total nodes allocated in the manager (analysis cost reporting). *)

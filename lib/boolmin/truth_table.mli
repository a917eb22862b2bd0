(** Three-valued truth tables (on / off / don't-care) over up to 20
    variables — the per-sublist functions f^{ι,κ}_Δ of the paper have at
    most Δ ≈ 6 inputs for the σ of interest. *)

type value = On | Off | Dc

type t

val create : vars:int -> default:value -> t
val vars : t -> int
val set : t -> int -> value -> unit
val get : t -> int -> value
val ones : t -> int list
val dontcares : t -> int list

val implements : t -> (int -> bool) -> bool
(** [implements t f]: [f] agrees with [t] on every non-don't-care minterm.
    Exhaustive over the 2^vars inputs. *)

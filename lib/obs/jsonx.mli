(** Minimal JSON, enough for the machine-readable outputs of this repo —
    analyzer findings, gate-budget baselines, metrics exposition and Chrome
    trace files — the repo deliberately has no external JSON dependency
    (same policy as [lib/bigint] vs zarith).  Lives in [ctg_obs], the
    lowest layer that needs it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict-enough recursive-descent parser for the subset this repo
    writes: objects, arrays, strings (with the standard escapes), numbers,
    booleans, null.  Errors carry the byte offset. *)

val to_string : t -> string
(** Compact rendering (no whitespace), integral floats printed as ints. *)

val pretty : t -> string
(** Two-space indented rendering, for committed baseline files. *)

val member : string -> t -> t option
(** Object field lookup ([None] on missing field or non-object). *)

val to_int : t -> int option
val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option

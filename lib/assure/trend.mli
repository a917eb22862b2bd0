(** Performance-trajectory tracking over the committed BENCH baselines.

    [bench history] flattens every [BENCH_*.json] in the repo root into
    [(path, value)] metrics (list entries keyed by their [sigma] field
    plus the [precision]/[domains] discriminators benches sweep, so
    reordering does not shuffle keys and no two entries collide), stamps
    the record with an
    environment fingerprint, and appends one JSON line to
    [BENCH_history.jsonl].  Deltas are only meaningful against a record
    with the {e same} fingerprint — a different host or core count is a
    different machine, not a regression — and only the latency-like
    ["_ns"]-suffixed series gate CI, with a deliberately loose default
    tolerance (25%) because shared CI hosts swing hard; the committed
    per-bench thresholds remain the precise gates. *)

type fingerprint = {
  host : string;
  ocaml_version : string;
  word_size : int;
  domains : int;  (** [Domain.recommended_domain_count ()]. *)
}

val fingerprint : unit -> fingerprint

type record = {
  time : string;  (** ISO-8601 UTC. *)
  fp : fingerprint;
  metrics : (string * float) list;
      (** Keys like
          ["BENCH_gates.json.entries[sigma=1,precision=16].gates"]. *)
}

val collect : ?files:string list -> dir:string -> unit -> record
(** Read and flatten the baselines present under [dir] (missing or
    unparseable files are skipped), stamped with the current time and
    fingerprint. *)

val to_json : record -> Ctg_obs.Jsonx.t
val of_json : Ctg_obs.Jsonx.t -> record option

val append : path:string -> record -> unit
(** Append one line to the history file (created if absent). *)

val load : path:string -> record list
(** All parseable records, file order (oldest first); [] when absent. *)

val baseline_for : fingerprint -> record list -> record option
(** Most recent record with the given fingerprint. *)

type delta = { key : string; base : float; current : float; pct : float }

val deltas : baseline:record -> record -> delta list
(** Per-metric change for keys present in both records. *)

val is_latency_key : string -> bool
(** True for the ["_ns"]-suffixed metric paths that are allowed to gate. *)

val regressions : ?tolerance_pct:float -> baseline:record -> record -> delta list
(** The gating subset of {!deltas}: ["_ns"]-suffixed keys that grew by
    more than [tolerance_pct] (default 25). *)

val pp_delta : Format.formatter -> delta -> unit
val pp_fingerprint : Format.formatter -> fingerprint -> unit

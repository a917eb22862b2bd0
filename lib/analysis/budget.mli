(** Gate/depth budgets: a committed JSON baseline ([BENCH_gates.json])
    per Table-2 sigma, regenerated by [ctg_lint --write-baseline], and
    checked by the lint gate so a compiler change that regresses gate
    counts fails CI loudly instead of drifting silently.  Compilation is
    deterministic, so the check is exact by default ([slack_pct = 0]). *)

type entry = {
  sigma : string;
  precision : int;
  tail_cut : int;
  gates : int;  (** Optimized compiler, default options. *)
  depth : int;
  simple_gates : int;  (** The naive reference on the same enumeration. *)
}

type t = { entries : entry list }

val measure : sigma:string -> precision:int -> tail_cut:int -> entry
(** Compile both programs and record their budgets. *)

val to_json : t -> Ctg_obs.Jsonx.t
val of_json : Ctg_obs.Jsonx.t -> (t, string) result
val save : string -> t -> unit
val load : string -> (t, string) result

val find : t -> sigma:string -> precision:int -> tail_cut:int -> entry option

val check :
  ?slack_pct:float -> baseline:entry -> entry -> Report.finding list
(** ["gate-budget"] [Error] when measured gates/depth exceed baseline by
    more than [slack_pct] percent; [Info] when measured is strictly below
    baseline (refresh suggestion).  [Error] on parameter mismatch. *)

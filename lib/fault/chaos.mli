(** The fault matrix: inject every modeled fault end-to-end and demand a
    verdict.

    Each {!case} injects one fault from {!Plan} into a live pipeline —
    pool lanes, gate tables, worker domains, the signing loop — and
    classifies what happened:

    - {e detected}: a defense raised or flagged before any corrupted
      output was delivered (health trip, KAT failure + eviction, stall
      watchdog, verify-after-sign reject);
    - {e contained}: the fault happened but the delivered output is
      provably unaffected (crash/transient recovered bit-exact against a
      clean reference run, corruption proven semantically harmless by
      BDD, rejected signature re-signed clean);
    - {e silent}: corrupted output was (or could have been) delivered
      with no signal — the only failing verdict.  CI fails on any.

    Everything derives from the printed master [seed] (fault positions,
    bias randomness, corruption sites), so a failing case reproduces
    exactly from the report alone. *)

type outcome = Detected | Contained | Silent

type case = {
  name : string;
  fault_class : string;  (** ["rng"], ["gate"], ["worker"] or ["sign"]. *)
  outcome : outcome;
  detail : string;
}

type report = {
  sigma : string;
  precision : int;
  seed : int64;
  cases : case list;
}

val count : outcome -> report -> int
val silent_cases : report list -> case list

val default_domains : int

val run :
  ?seed:int64 ->
  ?domains:int ->
  ?registry:Ctg_engine.Registry.t ->
  sigma:string ->
  precision:int ->
  tail_cut:int ->
  unit ->
  report
(** The full matrix at one parameter set: 4 randomness faults (stuck
    line, bias, repeating source, mid-stream exhaustion), 3 worker faults
    (kill, hang vs. the stall watchdog, transient failure), 3 gate-table
    corruptions (KAT + registry eviction at 1 and 3 flips, degradation to
    the CT CDT on a private compile) and 1 signing fault.  [registry]
    defaults to a {e fresh} registry so eviction scenarios never touch
    {!Ctg_engine.Registry.global}. *)

val to_json : report list -> Ctg_obs.Jsonx.t
(** Top-level [ok] is [true] iff no case anywhere is silent. *)

val pp_case : Format.formatter -> case -> unit
val pp_report : Format.formatter -> report -> unit

(** Shared result vocabulary of the static analyzer: {e findings} (things
    that are wrong or suspicious, with a severity) and {e proofs} (facts
    the BDD/taint engines established — or failed to — for all inputs).
    Both render human-readable and as JSON for CI. *)

type severity = Info | Warning | Error

type finding = {
  severity : severity;
  rule : string;  (** Stable machine name, e.g. ["dead-gate"]. *)
  where : string;  (** Program / target the finding is about. *)
  detail : string;
}

type proof = {
  name : string;  (** e.g. ["equiv simple\[share,exact,flat\]"]. *)
  holds : bool;
  evidence : string;
      (** What was checked / the counterexample when [holds = false]. *)
}

val finding : severity -> rule:string -> where:string -> string -> finding
val proof : name:string -> holds:bool -> evidence:string -> proof

val fails_ci : finding -> bool
(** [Warning] and [Error] findings fail the lint gate; [Info] does not. *)

val pp_finding : Format.formatter -> finding -> unit
val pp_proof : Format.formatter -> proof -> unit

val finding_to_json : finding -> Ctg_obs.Jsonx.t
val proof_to_json : proof -> Ctg_obs.Jsonx.t

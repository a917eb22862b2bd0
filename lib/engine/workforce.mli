(** A persistent team of helper domains for successive parallel-for jobs —
    the pool-submission seam the serving layer batches signatures through,
    and the fan-out behind every [Sign.sign_many] call.

    A daemon dispatches a small [Sign.sign_many] batch every few
    milliseconds, where spawning fresh domains per batch would dwarf the
    work.  A workforce parks its helpers between jobs, so submitting a job
    costs one broadcast instead of [domains − 1] spawns; a one-off batch
    creates a team, runs one job and shuts it down.

    Scheduling: an atomic cursor over [0 .. n-1], the calling domain
    participates, [f] must be safe to run concurrently for distinct [i],
    the first error cancels remaining iterations and is re-raised on the
    caller after every helper has left the job.  One job runs at
    a time; concurrent {!run} calls serialize (daemon batches are already
    serialized by the batcher). *)

type t

val create : ?domains:int -> unit -> t
(** Spawn [domains − 1] helper domains (default
    [Domain.recommended_domain_count ()]); the caller's domain is the
    remaining worker. *)

val domains : t -> int

val run : t -> n:int -> (int -> unit) -> unit
(** Run [f i] for every [i < n] across the team, caller participating.
    Deterministic in what is computed, not in who computes it.
    @raise Invalid_argument when [n < 0] or after {!shutdown}. *)

val shutdown : t -> unit
(** Join the helpers.  Idempotent; subsequent {!run} calls raise. *)

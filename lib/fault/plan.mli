(** Fault-injection plans: seeded, reproducible models of the faults the
    hardened pipeline claims to survive.

    Four fault surfaces, mirroring the threat table in DESIGN.md §9:

    - {e randomness}: a wrapped {!Ctg_prng.Bitstream} whose byte flow is
      corrupted inside an activation window — stuck bits, bias, a
      repeating source, total exhaustion.  The SP 800-90B health tests
      ({!Ctg_prng.Health}) are the matching defense.
    - {e gate tables}: in-place, structure-preserving opcode flips in a
      compiled {!Ctgauss.Gate} program (the single-event-upset model).
      The {!Ctg_engine.Selftest} KAT and {!Ctg_analysis.Equiv} BDD proofs
      are the defenses.
    - {e workers}: killing, hanging or failing a {!Ctg_engine.Pool} domain
      at a chunk boundary, through the pool's fault hook.  Supervision
      (retry, respawn, stall watchdog) is the defense.
    - {e signing}: corrupting signature coefficients between computation
      and output checks.  Verify-after-sign is the defense.

    Every plan is a pure function of its [seed], so a chaos run's printed
    seed reproduces the exact fault sequence. *)

(** {1 Randomness faults} *)

type rng_fault =
  | Stuck_bits of { and_mask : int; or_mask : int }
      (** [byte land and_mask lor or_mask] — e.g. [{and_mask = 0;
          or_mask = 0xff}] is a line stuck at one. *)
  | Bias of { p_one : float }
      (** Each bit independently one with probability [p_one] (drawn from
          the plan's own Splitmix stream — still reproducible). *)
  | Repeat of { period : int }
      (** The first [period] in-window bytes replay forever. *)
  | Exhausted  (** The source dies: zeros from the window start. *)

type window = { from_byte : int; until_byte : int option }
(** Byte positions (per lane) where the fault is active. *)

val always : window

val from_byte : int -> window
(** Active from byte [n] on — "mid-batch" onset. *)

type rng_plan

val rng_plan : ?window:window -> ?lanes:int list -> seed:int64 -> rng_fault -> rng_plan
(** [lanes] restricts the fault to those {!Ctg_engine.Stream_fork} lane
    indices (default: all lanes).  @raise Invalid_argument on malformed
    masks, probabilities, periods or windows. *)

val rng_fault_name : rng_fault -> string

val applies : rng_plan -> lane:int -> bool

val wrap : rng_plan -> lane:int -> Ctg_prng.Bitstream.t -> Ctg_prng.Bitstream.t
(** The faulty view of [inner] for [lane] ([inner] itself when the plan
    does not target the lane).  The inner stream advances one byte per
    byte served, keeping wrapped and clean lanes aligned outside the
    window. *)

val lane_factory :
  ?backend:Ctg_engine.Stream_fork.backend ->
  ?health:bool ->
  rng_plan ->
  seed:string ->
  int ->
  Ctg_prng.Bitstream.t
(** A drop-in [rng_of_lane] for {!Ctg_engine.Pool.create}: genuine
    {!Ctg_engine.Stream_fork} lane, fault wrapper on top, and — the part
    that matters — the health tests ([health] defaults [true]) attached to
    the {e wrapper}, where they see the bytes the sampler will consume. *)

(** {1 Value faults}

    Biased sampler {e outputs} rather than biased input randomness: the
    model of a subtly wrong sampler implementation (bad table constant,
    truncated tail, broken rejection step) that the statistical layer —
    online {!Ctg_assure.Drift} and the offline acceptance battery — must
    catch.  A corruptor maps each signed base draw to a faulted draw;
    it slots into {!Ctg_falcon.Base_sampler.of_instance}'s [bias] seam
    for end-to-end signing runs ({!Ctg_saga.Ratio}). *)

type value_fault =
  | Center_shift of { delta : float }
      (** Mean moves by exactly [delta] per draw: add [sign delta] with
          probability [|delta|].  [|delta| <= 1]. *)
  | Variance_deflate of { p : float }
      (** With probability [p], pull a nonzero draw one step toward 0 —
          symmetric, so the mean stays put while the variance shrinks. *)
  | Outlier of { p : float; magnitude : int }
      (** With probability [p], replace the draw with [+-magnitude] — a
          tail-mass / support violation. *)
  | Sticky of { p : float }
      (** With probability [p], replay the previous output — lag-1
          autocorrelation of about [p]. *)

type value_plan

val value_plan : seed:int64 -> value_fault -> value_plan
(** @raise Invalid_argument on out-of-range parameters. *)

val value_fault_name : value_fault -> string

val value_transform : value_plan -> int -> int
(** A fresh stateful corruptor over signed draws; its randomness is a
    pure function of the plan seed, so every faulted sequence is
    reproducible.  Partial application matters: [value_transform plan]
    creates the state once, then maps draw after draw. *)

(** {1 Gate-table corruption} *)

type gate_corruption = {
  index : int;  (** Instruction index. *)
  before : Ctgauss.Gate.instr;
  after : Ctgauss.Gate.instr;
}

val corrupt_program :
  seed:int64 -> flips:int -> Ctgauss.Gate.t -> gate_corruption list
(** Mutate [flips] distinct instructions of the (shared, mutable) program
    {e in place} with structure-preserving opcode flips — the program
    still passes {!Ctgauss.Gate.validate}, so only semantic defenses can
    tell.  The samplers sharing the program see it where they re-read
    the program: {!Ctgauss.Sampler.integrity_ok}'s digest and the
    {!Ctgauss.Sampler.eval_bits} known-answer vectors, which decode it
    afresh, both catch a flipped opcode.  Their batch evaluators do not:
    a sampler and every {!Ctgauss.Sampler.clone} of it, even one made
    after the corruption, share the gate table decoded when the sampler
    was compiled.  Returns the undo list for {!restore_program}. *)

val restore_program : Ctgauss.Gate.t -> gate_corruption list -> unit

(** {1 Worker faults} *)

type worker_fault =
  | Kill of { chunk : int }  (** Raise {!Ctg_engine.Pool.Kill_worker}. *)
  | Hang of { chunk : int; seconds : float }
  | Fail of { chunk : int; error : exn }

val pool_hook : worker_fault list -> Ctg_engine.Pool.fault_hook
(** Each listed fault fires exactly {e once} (atomically disarmed), so a
    killed chunk's re-run on another domain proceeds — level-triggered
    kills would chase the chunk through every respawn. *)

(** {1 Signing faults} *)

val sign_hook : seed:int64 -> bits:int -> Ctg_falcon.Sign.fault_hook
(** Flip [bits] random low-order coefficient bits of [s2] on the first
    invocation only; later attempts pass through clean, so a working
    verify-after-sign both detects the fault and still delivers. *)

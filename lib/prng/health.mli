(** Online entropy health tests (NIST SP 800-90B Sec. 4.4 style).

    The exact-sampling guarantees of every sampler in this repo hold only
    when the entropy source actually delivers fair bits; a silently biased
    or stuck PRNG lane turns distributional defects into key-recovery
    material.  A [Health.t] attached to a {!Bitstream} (see
    {!Bitstream.attach_health}) watches the raw byte flow {e as it is
    generated} — the scan runs on each fresh backend block before any bit
    of it is served — and raises {!Entropy_failure} on the first window
    that fails, so a tripped lane errors out instead of emitting samples.

    Tests, all over 32-bit units with per-window false-alarm probability
    ~2^-40 on a fair source:

    - {e repetition-count} (4.4.1): [rct_cutoff] identical consecutive
      units — catches stuck-at-constant sources within 12 bytes;
    - {e adaptive-proportion} (4.4.2): the first unit of each 512-unit
      window recurring [apt_cutoff] times — catches periodic repetition
      (replayed blocks, short-cycle generators) up to 2 KiB periods;
    - {e stuck-bit}: AND/OR accumulators over windows of 256 sampled
      units — catches any bit position frozen at 0 or 1;
    - {e ones-proportion}: windowed monobit count over 32768 sampled
      bits — catches global bias beyond ~53/47 per window.

    The two consecutive-unit tests (RCT, APT) see every unit; the two
    stationary-defect tests (stuck-bit, ones-proportion) see a 1-in-4
    systematic sample of the units, which preserves their per-window
    statistical power — a frozen line or a DC bias is in every unit —
    while keeping the always-on scan inside the engine's <3%
    defense-overhead budget (`bench fault`).

    Detection is statistical: a fault must persist for at most one window
    (16 KiB of stream for the sampled tests) before tripping, which is
    inside a single engine chunk at Falcon precisions, so a faulty chunk
    fails rather than being delivered. *)

type test = Repetition | Adaptive_proportion | Stuck_bit | Ones_proportion

val test_name : test -> string

type failure = { test : test; label : string; detail : string }

exception Entropy_failure of failure

type t

val create : ?label:string -> unit -> t
(** Fresh test state; [label] names the lane in failure reports. *)

val check_unit : t -> int -> unit
(** Feed one 32-bit unit.  @raise Entropy_failure on a tripped test. *)

val check_byte : t -> int -> unit
(** Feed one byte; bytes are packed LSB-first into 32-bit units. *)

val scan_block : t -> bytes -> unit
(** Feed a whole backend block (multiples of 4 bytes). *)

val units_checked : t -> int

val rct_cutoff : int
val apt_window : int

val stuck_window : int
(** In sampled units: one window spans [4 * stuck_window] scanned units. *)

val ones_window_units : int
(** In sampled units: one window spans [4 * ones_window_units] scanned
    units. *)

(* Online entropy health tests in the style of NIST SP 800-90B Sec. 4.4.
   The unit of observation is a 32-bit draw (one "sample" of a noise
   source claiming close to full entropy); all state updates are a few
   integer operations per unit so the tests can stay always-on under the
   engine's <3% defense-overhead budget (bench fault). *)

type test =
  | Repetition  (** SP 800-90B 4.4.1 on 32-bit units. *)
  | Adaptive_proportion  (** SP 800-90B 4.4.2 on 32-bit units. *)
  | Stuck_bit  (** AND/OR window: a bit position that never moves. *)
  | Ones_proportion  (** Windowed global bias (monobit drift). *)

let test_name = function
  | Repetition -> "repetition-count"
  | Adaptive_proportion -> "adaptive-proportion"
  | Stuck_bit -> "stuck-bit"
  | Ones_proportion -> "ones-proportion"

type failure = { test : test; label : string; detail : string }

exception Entropy_failure of failure

(* False-positive budget: every cutoff below is sized for a per-window
   alarm probability of ~2^-40 on a fair source, so CI-scale volumes
   (~2^30 units) stay clean with margin while persistent faults trip
   within at most one window. *)

let rct_cutoff = 3
(* Three identical consecutive 32-bit units: P(fair) = 2^-64 per start. *)

let apt_window = 512
let apt_cutoff = 4
(* >= 3 later copies of the window's first unit: P(fair) ~ 2e-21. *)

let stuck_window = 256
(* P(a given bit of 256 fair units is constant) = 2 * 2^-256. *)

let ones_window_units = 1024
(* 32768 bits; mean 16384, sigma = 90.5.  z = 13.2 for ~2^-40 two-sided. *)
let ones_slack = 1196

(* All three window lengths are powers of two so the position inside
   each window can be derived from the single global unit counter with
   one [land] instead of a dedicated counter per test — this halves the
   mutable-field traffic on the per-unit hot path. *)
let () =
  (* ... and all of them at least 16 units, so windows open and close
     only on 64-byte block edges, which [scan64] relies on *)
  assert (apt_window >= 16 && stuck_window >= 4 && ones_window_units >= 4);
  assert (apt_window land (apt_window - 1) = 0);
  assert (stuck_window land (stuck_window - 1) = 0);
  assert (ones_window_units land (ones_window_units - 1) = 0)

type t = {
  label : string;
  mutable units : int; (* 32-bit units observed; window phase source *)
  (* repetition count *)
  mutable last : int;
  mutable run : int;
  (* adaptive proportion *)
  mutable apt_ref : int;
  mutable apt_count : int;
  (* stuck bit *)
  mutable and_acc : int;
  mutable or_acc : int;
  (* ones proportion *)
  mutable ones : int;
  (* byte-path staging: bytes are packed into 32-bit units so byte
     sources see the same statistics as the block path *)
  mutable byte_acc : int;
  mutable byte_cnt : int;
}

let create ?(label = "prng") () =
  {
    label;
    units = 0;
    last = -1;
    run = 0;
    apt_ref = -1;
    apt_count = 0;
    and_acc = 0xFFFFFFFF;
    or_acc = 0;
    ones = 0;
    byte_acc = 0;
    byte_cnt = 0;
  }

let units_checked t = t.units

let fail t test detail = raise (Entropy_failure { test; label = t.label; detail })

(* One 32-bit unit.  The hot path below is branch-light straight-line
   integer code with no memory loads beyond the record fields: the ones
   count uses a SWAR popcount (no table, no bounds checks) and window
   rollovers fire on [units land (window - 1)] so they cost one mask and
   compare per unit, amortizing the actual checks over hundreds of
   units.

   Heavy-test sampling: stuck-bit and ones-proportion run on a 1-in-4
   systematic sample of the units (those whose index is a multiple of
   4).  Both target stationary defects — a frozen line or a DC bias is
   present in every unit, so the sample has identical per-window
   statistical power at a quarter of the always-on cost; only the
   detection latency stretches (by 4x in scanned bytes).  RCT and APT,
   whose SP 800-90B semantics are inherently about consecutive units,
   run on every unit.  [stuck_window] and [ones_window_units] count
   sampled units: one stuck window spans 4·256 = 1024 scanned units, one
   ones window 4·1024 = 4096. *)
let check_unit t u =
  let count = t.units + 1 in
  t.units <- count;
  (* 4.4.1 repetition count *)
  if u = t.last then begin
    let run = t.run + 1 in
    t.run <- run;
    if run >= rct_cutoff then
      fail t Repetition
        (Printf.sprintf "unit 0x%08x repeated %d times (cutoff %d)" u run
           rct_cutoff)
  end
  else begin
    t.last <- u;
    t.run <- 1
  end;
  (* 4.4.2 adaptive proportion: a window opens on the unit whose
     zero-based index is a multiple of the window length *)
  if (count - 1) land (apt_window - 1) = 0 then begin
    t.apt_ref <- u;
    t.apt_count <- 1
  end
  else if u = t.apt_ref then begin
    let c = t.apt_count + 1 in
    t.apt_count <- c;
    if c >= apt_cutoff then
      fail t Adaptive_proportion
        (Printf.sprintf
           "unit 0x%08x seen %d times in a %d-unit window (cutoff %d)" u c
           apt_window apt_cutoff)
  end;
  (* sampled heavy tests on every 4th unit *)
  if count land 3 = 0 then begin
    (* stuck-bit window *)
    t.and_acc <- t.and_acc land u;
    t.or_acc <- t.or_acc lor u;
    if count land ((4 * stuck_window) - 1) = 0 then begin
      if t.and_acc <> 0 then
        fail t Stuck_bit
          (Printf.sprintf "bit mask 0x%08x stuck at 1 over %d sampled units"
             t.and_acc stuck_window);
      if t.or_acc <> 0xFFFFFFFF then
        fail t Stuck_bit
          (Printf.sprintf "bit mask 0x%08x stuck at 0 over %d sampled units"
             (lnot t.or_acc land 0xFFFFFFFF)
             stuck_window);
      t.and_acc <- 0xFFFFFFFF;
      t.or_acc <- 0
    end;
    (* ones proportion, SWAR popcount of the 32-bit unit *)
    let x = u - ((u lsr 1) land 0x55555555) in
    let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
    let x = (x + (x lsr 4)) land 0x0F0F0F0F in
    t.ones <- t.ones + ((x * 0x01010101) lsr 24 land 0xFF);
    if count land ((4 * ones_window_units) - 1) = 0 then begin
      let expected = 16 * ones_window_units in
      let dev = abs (t.ones - expected) in
      if dev > ones_slack then
        fail t Ones_proportion
          (Printf.sprintf "%d ones in %d sampled bits (expected %d +/- %d)"
             t.ones
             (32 * ones_window_units) expected ones_slack);
      t.ones <- 0
    end
  end

let check_byte t b =
  t.byte_acc <- t.byte_acc lor ((b land 0xff) lsl (8 * t.byte_cnt));
  t.byte_cnt <- t.byte_cnt + 1;
  if t.byte_cnt = 4 then begin
    let u = t.byte_acc in
    t.byte_acc <- 0;
    t.byte_cnt <- 0;
    check_unit t u
  end

(* Block scan — the production hot path: every 64-byte backend block is
   scanned before a byte of it is served.  The fast path handles the
   statistically overwhelming case (nothing repeats, no window fails):
   one loop over the block's eight 64-bit words compares each unit with
   its predecessor and the APT reference, then the four sampled units
   feed the stuck-bit accumulators and one shared SWAR popcount.  It
   allocates nothing, keeps the units in registers (a straight-line
   version spilled all sixteen to the stack), and touches the state
   record once on each side.  Window boundaries stay on the fast path —
   with the unit counter at a multiple of 16, an APT window can only
   open on the block's first unit and the sampled windows can only
   close on its last, where a passing window just resets its
   accumulator.  The moment anything looks interesting — two equal
   consecutive units (a repetition run starting), a unit colliding with
   the APT reference, or a closing window that would fail — nothing has
   been written yet, and the whole block is replayed through
   [check_unit], the exact path, which raises where it should.  Blocks
   of other sizes or misaligned with the unit counter (mixed byte/block
   feeding) take the exact path too. *)

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
(* Compiler primitive: unaligned native-endian 64-bit load; ocamlopt
   keeps the result unboxed when it is consumed immediately. *)

let unit_le buf base =
  Char.code (Bytes.unsafe_get buf base)
  lor (Char.code (Bytes.unsafe_get buf (base + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get buf (base + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get buf (base + 3)) lsl 24)

let exact t buf =
  for k = 0 to (Bytes.length buf / 4) - 1 do
    check_unit t (unit_le buf (4 * k))
  done

(* The two units of a little-endian 64-bit word: unit 2k and 2k + 1 of
   a block are [lo] and [hi] of its k-th word. *)
let[@inline] lo w = Int64.to_int w land 0xFFFFFFFF
let[@inline] hi w = Int64.to_int (Int64.shift_right_logical w 32)
let[@inline] word buf k = get64u buf (8 * k)

(* Ones in the four sampled units 3, 7, 11 and 15 — the high halves of
   words 1, 3, 5 and 7 — two units per 64-bit SWAR popcount, with one
   shared multiply for the final byte sum. *)
let[@inline] byte_counts64 x =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL

(* The high units of words [k] and [k + 2] side by side. *)
let[@inline] high_pair buf k =
  Int64.logor
    (Int64.shift_right_logical (word buf k) 32)
    (Int64.logand (word buf (k + 2)) 0xFFFFFFFF00000000L)

let sampled_ones buf =
  let open Int64 in
  let counts =
    add (byte_counts64 (high_pair buf 1)) (byte_counts64 (high_pair buf 5))
  in
  to_int (shift_right_logical (mul counts 0x0101010101010101L) 56)

(* No unit of words [k..7] equals its predecessor ([prev] precedes word
   [k]) or the APT reference [aref]. *)
let rec fresh_words buf k prev aref =
  k = 8
  ||
  let w = word buf k in
  let a = lo w and b = hi w in
  a <> prev && a <> aref && b <> a && b <> aref && fresh_words buf (k + 1) b aref

let scan64 t buf =
  let count = t.units in
  let w0 = word buf 0 in
  let u0 = lo w0 and u1 = hi w0 in
  (* u0 opens an APT window when its index is a window multiple; it is
     then the new reference and is not compared with the old one *)
  let opening = count land (apt_window - 1) = 0 in
  let aref = if opening then u0 else t.apt_ref in
  if
    not
      (u0 <> t.last
      && (opening || u0 <> aref)
      && u1 <> u0 && u1 <> aref
      && fresh_words buf 1 u1 aref)
  then exact t buf
  else begin
    (* the sampled units 3, 7, 11 and 15 *)
    let next = count + 16 in
    let s3 = hi (word buf 1) and s7 = hi (word buf 3) in
    let s11 = hi (word buf 5) and s15 = hi (word buf 7) in
    let and_acc = t.and_acc land s3 land s7 land s11 land s15 in
    let or_acc = t.or_acc lor s3 lor s7 lor s11 lor s15 in
    let ones = t.ones + sampled_ones buf in
    let stuck_end = next land ((4 * stuck_window) - 1) = 0 in
    let ones_end = next land ((4 * ones_window_units) - 1) = 0 in
    if
      (stuck_end && (and_acc <> 0 || or_acc <> 0xFFFFFFFF))
      || (ones_end && abs (ones - (16 * ones_window_units)) > ones_slack)
    then exact t buf
    else begin
      t.units <- next;
      t.last <- s15;
      t.run <- 1;
      if opening then begin
        t.apt_ref <- aref;
        t.apt_count <- 1
      end;
      t.and_acc <- (if stuck_end then 0xFFFFFFFF else and_acc);
      t.or_acc <- (if stuck_end then 0 else or_acc);
      t.ones <- (if ones_end then 0 else ones)
    end
  end

let scan_block t buf =
  if
    Sys.big_endian (* get64u is native-endian; stay byte-exact *)
    || Bytes.length buf <> 64
    || t.units land 15 <> 0
  then exact t buf
  else scan64 t buf

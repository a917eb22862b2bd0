(* The overflow count is not kept: it is [total] minus the in-range
   counts, so the per-sample fold skips out-of-range samples without
   touching a counter. *)
type t = {
  counts : int array;  (* counts.(m) = occurrences of magnitude m *)
  mutable total : int;  (* samples folded, overflow included *)
}

let create ~support =
  if support < 0 then invalid_arg "Sketch.create: support must be >= 0";
  { counts = Array.make (support + 1) 0; total = 0 }

(* [Stdlib.abs] branches on the sign, and a Gaussian sample's sign is a
   coin flip, so it mispredicts every other sample; the mask form costs
   three ALU ops.  Equal to [abs] on every int ([min_int] included). *)
let[@inline] magnitude v =
  let s = v asr (Sys.int_size - 1) in
  (v lxor s) - s

let[@inline] bump counts bins v =
  let m = magnitude v in
  if m < bins then Array.unsafe_set counts m (Array.unsafe_get counts m + 1)

let add t v =
  let m = magnitude v in
  if m < Array.length t.counts then t.counts.(m) <- t.counts.(m) + 1;
  t.total <- t.total + 1

(* The always-on hot loop (every engine chunk flows through here): one
   bounds test and one increment per sample, four samples per iteration
   so the loop test and the poll point are paid once per four; the total
   is folded in once at the end.  [pos/len] are validated up front and
   [m < bins] guards the unsafe accesses ([min_int] is excluded by the
   .mli: guarding it too cost ~0.2 ns/sample). *)
let add_sub t a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Sketch.add_sub";
  let counts = t.counts in
  let bins = Array.length counts in
  let stop = pos + len in
  let i = ref pos in
  while !i + 4 <= stop do
    let j = !i in
    bump counts bins (Array.unsafe_get a j);
    bump counts bins (Array.unsafe_get a (j + 1));
    bump counts bins (Array.unsafe_get a (j + 2));
    bump counts bins (Array.unsafe_get a (j + 3));
    i := j + 4
  done;
  for j = !i to stop - 1 do
    bump counts bins (Array.unsafe_get a j)
  done;
  t.total <- t.total + len

let add_all t a = add_sub t a ~pos:0 ~len:(Array.length a)

let total t = t.total
let overflow t = t.total - Array.fold_left ( + ) 0 t.counts
let count t m = t.counts.(m)

let absorb dst src =
  if Array.length dst.counts <> Array.length src.counts then
    invalid_arg "Sketch.absorb: support mismatch";
  for i = 0 to Array.length dst.counts - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  dst.total <- dst.total + src.total

let merge a b =
  if Array.length a.counts <> Array.length b.counts then
    invalid_arg "Sketch.merge: support mismatch";
  {
    counts = Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i));
    total = a.total + b.total;
  }

let equal a b = a.counts = b.counts && a.total = b.total

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0

(* Observed counts with the overflow tail as a final extra bin — the shape
   the chi-square evaluation consumes. *)
let observed_into t dst =
  let bins = Array.length t.counts in
  if Array.length dst <> bins + 1 then invalid_arg "Sketch.observed_into";
  (* A loop, not [Array.blit]: blitting into a major-heap array takes the
     write barrier per element. *)
  let in_range = ref 0 in
  for i = 0 to bins - 1 do
    let c = Array.unsafe_get t.counts i in
    Array.unsafe_set dst i c;
    in_range := !in_range + c
  done;
  dst.(bins) <- t.total - !in_range

let observed t =
  let dst = Array.make (Array.length t.counts + 1) 0 in
  observed_into t dst;
  dst

let empirical t =
  if t.total = 0 then Array.make (Array.length t.counts) 0.0
  else
    let n = float_of_int t.total in
    Array.map (fun c -> float_of_int c /. n) t.counts

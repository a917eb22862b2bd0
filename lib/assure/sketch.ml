type t = {
  counts : int array;  (* counts.(m) = occurrences of magnitude m *)
  mutable overflow : int;
  mutable total : int;
}

let create ~support =
  if support < 0 then invalid_arg "Sketch.create: support must be >= 0";
  { counts = Array.make (support + 1) 0; overflow = 0; total = 0 }

let support t = Array.length t.counts - 1

let add t v =
  let m = abs v in
  if m < Array.length t.counts then t.counts.(m) <- t.counts.(m) + 1
  else t.overflow <- t.overflow + 1;
  t.total <- t.total + 1

(* [Stdlib.abs] branches on the sign, and a Gaussian sample's sign is a
   coin flip, so it mispredicts every other sample; the mask form costs
   three ALU ops.  Equal to [abs] on every int ([min_int] included). *)
let[@inline] magnitude v =
  let s = v asr (Sys.int_size - 1) in
  (v lxor s) - s

(* The always-on hot loop (every engine chunk flows through here): one
   bounds test and one increment per sample, totals folded in once at the
   end.  [pos/len] are validated up front and [m < support+1] guards the
   unsafe accesses. *)
let add_sub t a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Sketch.add_sub";
  let counts = t.counts in
  let bins = Array.length counts in
  let ov = ref 0 in
  for i = pos to pos + len - 1 do
    let m = magnitude (Array.unsafe_get a i) in
    if m < bins then
      Array.unsafe_set counts m (Array.unsafe_get counts m + 1)
    else incr ov
  done;
  t.overflow <- t.overflow + !ov;
  t.total <- t.total + len

let add_all t a = add_sub t a ~pos:0 ~len:(Array.length a)

let total t = t.total
let overflow t = t.overflow
let count t m = t.counts.(m)

let copy t =
  { counts = Array.copy t.counts; overflow = t.overflow; total = t.total }

let absorb dst src =
  if Array.length dst.counts <> Array.length src.counts then
    invalid_arg "Sketch.absorb: support mismatch";
  for i = 0 to Array.length dst.counts - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  dst.overflow <- dst.overflow + src.overflow;
  dst.total <- dst.total + src.total

let merge a b =
  if Array.length a.counts <> Array.length b.counts then
    invalid_arg "Sketch.merge: support mismatch";
  {
    counts = Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i));
    overflow = a.overflow + b.overflow;
    total = a.total + b.total;
  }

let equal a b =
  a.counts = b.counts && a.overflow = b.overflow && a.total = b.total

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.overflow <- 0;
  t.total <- 0

(* Observed counts with the overflow tail as a final extra bin — the shape
   the chi-square evaluation consumes. *)
let observed t = Array.append t.counts [| t.overflow |]

let empirical t =
  if t.total = 0 then Array.make (Array.length t.counts) 0.0
  else
    let n = float_of_int t.total in
    Array.map (fun c -> float_of_int c /. n) t.counts

let pp fmt t =
  Format.fprintf fmt "sketch(n=%d, overflow=%d, support=%d)" t.total t.overflow
    (support t)

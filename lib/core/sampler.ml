module Bs = Ctg_prng.Bitstream
module Trace = Ctg_obs.Trace

let paper_keys = [ ("1", 128); ("2", 128); ("6.15543", 128); ("215", 16) ]

type t = {
  matrix : Ctg_kyao.Matrix.t;
  enum : Ctg_kyao.Leaf_enum.t;
  program : Gate.t;
  scratch : Bitslice.scratch;
  inputs : int array;
  sample_bits : int;
  gates : int;
      (* cached [Gate.gate_count program]: the fold is O(gates) and the
         engine charges gate evals to its metrics once per chunk *)
  digest : int64;
      (* [Gate.digest program] taken at compile time; integrity monitors
         recompute and compare to catch later gate-table corruption *)
  kernel : (int array -> unit) option;
      (* generated straight-line code of [program], run in place of the
         interpreter when bound *)
  buffer : int array; (* one batch of signed samples, refilled in place *)
  mutable buffer_pos : int; (* [Bitslice.lanes] when used up *)
  buffer_mag : int array;
  mutable buffer_mag_pos : int;
  mutable resamples : int; (* lanes rescued by the scalar fallback walk *)
}

let of_enum (enum : Ctg_kyao.Leaf_enum.t) =
  let sigma = enum.Ctg_kyao.Leaf_enum.matrix.Ctg_kyao.Matrix.sigma in
  let program =
    Trace.with_span "compile_program" ~cat:"compile"
      ~args:(fun () -> [ ("sigma", sigma) ])
      (fun () -> Compile.compile (Sublist.build enum))
  in
  let support = enum.Ctg_kyao.Leaf_enum.matrix.Ctg_kyao.Matrix.support in
  {
    matrix = enum.Ctg_kyao.Leaf_enum.matrix;
    enum;
    program;
    scratch = Bitslice.scratch program;
    inputs = Array.make program.Gate.num_vars 0;
    sample_bits = max 1 (Ctg_util.Bits.bits_needed support);
    gates = Gate.gate_count program;
    digest = Gate.digest program;
    kernel = None;
    buffer = Array.make Bitslice.lanes 0;
    buffer_pos = Bitslice.lanes;
    buffer_mag = Array.make Bitslice.lanes 0;
    buffer_mag_pos = Bitslice.lanes;
    resamples = 0;
  }

let clone t =
  {
    t with
    scratch = Bitslice.fork t.scratch;
    inputs = Array.make t.program.Gate.num_vars 0;
    buffer = Array.make Bitslice.lanes 0;
    buffer_pos = Bitslice.lanes;
    buffer_mag = Array.make Bitslice.lanes 0;
    buffer_mag_pos = Bitslice.lanes;
    resamples = 0;
  }

let with_kernel t kernel = { (clone t) with kernel = Some kernel }
let has_kernel t = Option.is_some t.kernel

let create ~sigma ~precision ~tail_cut () =
  let matrix =
    Trace.with_span "build_matrix" ~cat:"compile"
      ~args:(fun () -> [ ("sigma", sigma); ("precision", string_of_int precision) ])
      (fun () -> Ctg_kyao.Matrix.create ~sigma ~precision ~tail_cut)
  in
  let enum =
    Trace.with_span "enumerate_leaves" ~cat:"compile"
      ~args:(fun () -> [ ("sigma", sigma) ])
      (fun () -> Ctg_kyao.Leaf_enum.enumerate matrix)
  in
  of_enum enum

(* Magnitudes of one program run into [dst.(off .. off + 62)], fallback
   lanes resampled with the reference walk in lane order. *)
let magnitudes_into t rng dst off =
  if off < 0 || off > Array.length dst - Bitslice.lanes then
    invalid_arg "Sampler: batch range out of bounds";
  for i = 0 to Array.length t.inputs - 1 do
    t.inputs.(i) <- Bs.next_word rng
  done;
  (match t.kernel with
  | Some k -> Bitslice.eval_kernel k t.scratch ~inputs:t.inputs
  | None -> Bitslice.eval t.program t.scratch ~inputs:t.inputs);
  Bitslice.magnitudes_into t.program t.scratch dst off;
  let valid = Bitslice.valid_word t.program t.scratch in
  if valid <> Bitslice.all_ones then
    for lane = 0 to Bitslice.lanes - 1 do
      if (valid lsr lane) land 1 = 0 then begin
        dst.(off + lane) <- Ctg_kyao.Column_sampler.sample_magnitude t.matrix rng;
        t.resamples <- t.resamples + 1
      end
    done

let batch_magnitude t rng =
  let mags = Array.make Bitslice.lanes 0 in
  magnitudes_into t rng mags 0;
  mags

(* The sign word is drawn after any fallback walk, and lane i's sign bit
   negates it without a branch: (m lxor -s) + s is m for s = 0, -m for
   s = 1. *)
let batch_signed_into t rng dst off =
  magnitudes_into t rng dst off;
  let signs = Bs.next_word rng in
  for lane = 0 to Bitslice.lanes - 1 do
    let s = (signs lsr lane) land 1 in
    let i = off + lane in
    Array.unsafe_set dst i ((Array.unsafe_get dst i lxor (-s)) + s)
  done

let batch_signed t rng =
  let out = Array.make Bitslice.lanes 0 in
  batch_signed_into t rng out 0;
  out

let fill t rng dst ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length dst - len then
    invalid_arg "Sampler.fill";
  let stop = pos + len in
  let i = ref pos in
  (* [Stdlib.min] is polymorphic: a C compare call per batch. *)
  while !i < stop do
    let rest = stop - !i in
    if rest >= Bitslice.lanes then batch_signed_into t rng dst !i
    else Array.blit (batch_signed t rng) 0 dst !i rest;
    i := !i + Bitslice.lanes
  done

let sample t rng =
  if t.buffer_pos >= Bitslice.lanes then begin
    batch_signed_into t rng t.buffer 0;
    t.buffer_pos <- 0
  end;
  let s = t.buffer.(t.buffer_pos) in
  t.buffer_pos <- t.buffer_pos + 1;
  s

let sample_magnitude t rng =
  if t.buffer_mag_pos >= Bitslice.lanes then begin
    magnitudes_into t rng t.buffer_mag 0;
    t.buffer_mag_pos <- 0
  end;
  let s = t.buffer_mag.(t.buffer_mag_pos) in
  t.buffer_mag_pos <- t.buffer_mag_pos + 1;
  s

let program t = t.program
let gate_count t = t.gates
let sample_bits t = t.sample_bits
let matrix t = t.matrix
let enum t = t.enum
let sigma t = t.matrix.Ctg_kyao.Matrix.sigma
let resamples t = t.resamples
let digest t = t.digest
let integrity_ok t = Gate.digest t.program = t.digest
let eval_bits t bits = Bitslice.eval_single ?kernel:t.kernel t.program bits

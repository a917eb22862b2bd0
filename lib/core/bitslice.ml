let lanes = 63
let all_ones = -1 (* all 63 value bits set; only bitwise use below *)

(* The evaluator is branchless: every gate is executed as
     r = ((a land b) land m1) lor ((a lxor b) land m2)
   with per-gate masks — And: (m1, m2) = (-1, 0); Or: (-1, -1);
   Xor: (0, -1); Not x: Xor against a pinned all-ones register; constants
   read the pinned register through the same formula.  A tag-dispatching
   interpreter paid a branch misprediction per gate on programs with
   irregular And/Or mixes (exactly what the selector-chain compiler
   emits), which skewed the Table-2 comparison; this form costs the same
   few ALU ops per gate regardless of the instruction pattern.  The
   decoded table ([xs], [ys], [m1], [m2]) is read-only once built, so
   {!fork} shares it. *)
type scratch = {
  xs : int array;
  ys : int array;
  m1 : int array;
  m2 : int array;
  regs : int array;
  outs : int array; (* output words, copied out by [magnitudes_into] *)
  num_vars : int;
  ones_reg : int;
}

let scratch (p : Gate.t) =
  let nv = p.Gate.num_vars in
  let n = Array.length p.Gate.instrs in
  let ones_reg = nv + n in
  let xs = Array.make n ones_reg in
  let ys = Array.make n ones_reg in
  let m1 = Array.make n 0 in
  let m2 = Array.make n 0 in
  Array.iteri
    (fun i instr ->
      match instr with
      | Gate.And (x, y) ->
        xs.(i) <- x;
        ys.(i) <- y;
        m1.(i) <- -1
      | Gate.Or (x, y) ->
        xs.(i) <- x;
        ys.(i) <- y;
        m1.(i) <- -1;
        m2.(i) <- -1
      | Gate.Xor (x, y) ->
        xs.(i) <- x;
        ys.(i) <- y;
        m2.(i) <- -1
      | Gate.Not x ->
        (* x lxor ones *)
        xs.(i) <- x;
        m2.(i) <- -1
      | Gate.Const true ->
        (* ones land ones *)
        m1.(i) <- -1
      | Gate.Const false -> ())
    p.Gate.instrs;
  let regs = Array.make (ones_reg + 1) 0 in
  regs.(ones_reg) <- all_ones;
  let outs = Array.make (Array.length p.Gate.outputs) 0 in
  { xs; ys; m1; m2; regs; outs; num_vars = nv; ones_reg }

let fork s =
  let regs = Array.make (s.ones_reg + 1) 0 in
  regs.(s.ones_reg) <- all_ones;
  { s with regs; outs = Array.make (Array.length s.outs) 0 }

let eval (p : Gate.t) (s : scratch) ~inputs =
  let nv = s.num_vars in
  Array.blit inputs 0 s.regs 0 nv;
  let n = Array.length p.Gate.instrs in
  let regs = s.regs and xs = s.xs and ys = s.ys and m1 = s.m1 and m2 = s.m2 in
  for i = 0 to n - 1 do
    let a = Array.unsafe_get regs (Array.unsafe_get xs i) in
    let b = Array.unsafe_get regs (Array.unsafe_get ys i) in
    Array.unsafe_set regs (nv + i)
      (a land b land Array.unsafe_get m1 i
      lor ((a lxor b) land Array.unsafe_get m2 i))
  done

(* A generated kernel of the same program computes the same register
   values (see {!Codegen.to_ocaml}); it writes only the registers that
   {!output}, {!valid_word} and {!magnitudes_into} read. *)
let eval_kernel kernel (s : scratch) ~inputs =
  Array.blit inputs 0 s.regs 0 s.num_vars;
  kernel s.regs

let output (p : Gate.t) (s : scratch) i = s.regs.(p.Gate.outputs.(i))

let valid_word (p : Gate.t) (s : scratch) =
  match p.Gate.valid with None -> all_ones | Some r -> s.regs.(r)

(* [spread x]: bit k of the low byte of [x] moved to bit 8k. *)
let[@inline] spread x =
  let x = (x lor (x lsl 28)) land 0x0000000F0000000F in
  let x = (x lor (x lsl 14)) land 0x0003000300030003 in
  (x lor (x lsl 7)) land 0x0101010101010101

(* Transpose eight lanes at a time: the byte of each output word that
   holds lanes 8g .. 8g+7 is spread to one bit per byte, up to seven
   output bits are stacked in each byte (not eight: an OCaml int has no
   bit 63), and each lane's byte is cut out.  Half the cost of gathering
   bit by bit, as costly as the generated kernel at σ=215's 12 output
   bits, and like it the same operations whatever the values. *)
let magnitudes_into (p : Gate.t) (s : scratch) dst off =
  let outputs = p.Gate.outputs and w = s.outs in
  let m = Array.length outputs in
  if off < 0 || off > Array.length dst - lanes || Array.length w <> m then
    invalid_arg "Bitslice.magnitudes_into";
  for bit = 0 to m - 1 do
    Array.unsafe_set w bit s.regs.(Array.unsafe_get outputs bit)
  done;
  for g = 0 to (lanes - 1) / 8 do
    let shift = 8 * g in
    let last = if lanes - 1 - shift < 7 then lanes - 1 - shift else 7 in
    let b0 = ref 0 in
    while !b0 < m do
      let top = if !b0 + 7 < m then !b0 + 7 else m in
      let acc = ref 0 in
      for bit = !b0 to top - 1 do
        acc :=
          !acc lor (spread ((Array.unsafe_get w bit lsr shift) land 0xFF) lsl (bit - !b0))
      done;
      for k = 0 to last do
        let i = off + shift + k in
        let v = ((!acc lsr (8 * k)) land 0x7F) lsl !b0 in
        Array.unsafe_set dst i (if !b0 = 0 then v else Array.unsafe_get dst i lor v)
      done;
      b0 := top
    done
  done

let magnitudes p s =
  let out = Array.make lanes 0 in
  magnitudes_into p s out 0;
  out

let eval_single ?kernel (p : Gate.t) bits =
  let nv = p.Gate.num_vars in
  let inputs = Array.make nv 0 in
  let n = min nv (Array.length bits) in
  for i = 0 to n - 1 do
    inputs.(i) <- (if bits.(i) then all_ones else 0)
  done;
  let s = scratch p in
  (match kernel with
  | Some k -> eval_kernel k s ~inputs
  | None -> eval p s ~inputs);
  let m = Array.length p.Gate.outputs in
  let mag = ref 0 in
  for bit = 0 to m - 1 do
    if output p s bit land 1 <> 0 then mag := !mag lor (1 lsl bit)
  done;
  (!mag, valid_word p s land 1 <> 0)

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
   few ALU ops per gate regardless of the instruction pattern. *)
type scratch = {
  xs : int array;
  ys : int array;
  m1 : int array;
  m2 : int array;
  regs : int array;
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
  { xs; ys; m1; m2; regs; num_vars = nv; ones_reg }

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

let output (p : Gate.t) (s : scratch) i = s.regs.(p.Gate.outputs.(i))

let valid_word (p : Gate.t) (s : scratch) =
  match p.Gate.valid with None -> all_ones | Some r -> s.regs.(r)

(* Lane-major: each lane's magnitude is gathered in a register from the
   output words and stored once. *)
let magnitudes_into (p : Gate.t) (s : scratch) dst off =
  if off < 0 || off > Array.length dst - lanes then
    invalid_arg "Bitslice.magnitudes_into";
  let outputs = p.Gate.outputs and regs = s.regs in
  let m = Array.length outputs in
  for lane = 0 to lanes - 1 do
    let mag = ref 0 in
    for bit = 0 to m - 1 do
      let w = regs.(Array.unsafe_get outputs bit) in
      mag := !mag lor (((w lsr lane) land 1) lsl bit)
    done;
    Array.unsafe_set dst (off + lane) !mag
  done

let magnitudes p s =
  let out = Array.make lanes 0 in
  magnitudes_into p s out 0;
  out

let eval_single (p : Gate.t) bits =
  let nv = p.Gate.num_vars in
  let inputs = Array.make nv 0 in
  let n = min nv (Array.length bits) in
  for i = 0 to n - 1 do
    inputs.(i) <- (if bits.(i) then all_ones else 0)
  done;
  let s = scratch p in
  eval p s ~inputs;
  let m = Array.length p.Gate.outputs in
  let mag = ref 0 in
  for bit = 0 to m - 1 do
    if output p s bit land 1 <> 0 then mag := !mag lor (1 lsl bit)
  done;
  (!mag, valid_word p s land 1 <> 0)

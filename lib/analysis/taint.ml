module Gate = Ctgauss.Gate

type census = {
  ands : int;
  ors : int;
  xors : int;
  nots : int;
  consts : int;
}

type t = {
  program : Gate.t;
  verdict : (unit, string) result;
  census : census;
  live : bool array;
  support : Bytes.t array;  (* per register, bitset over input variables *)
}

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  let byte = i lsr 3 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl (i land 7))))

let union dst src =
  for i = 0 to Bytes.length dst - 1 do
    Bytes.set dst i
      (Char.chr (Char.code (Bytes.get dst i) lor (Char.code (Bytes.get src i))))
  done

let analyze (p : Gate.t) =
  let nv = p.Gate.num_vars in
  let n = Array.length p.Gate.instrs in
  let verdict = Gate.validate p in
  let census =
    Array.fold_left
      (fun c instr ->
        match instr with
        | Gate.And _ -> { c with ands = c.ands + 1 }
        | Gate.Or _ -> { c with ors = c.ors + 1 }
        | Gate.Xor _ -> { c with xors = c.xors + 1 }
        | Gate.Not _ -> { c with nots = c.nots + 1 }
        | Gate.Const _ -> { c with consts = c.consts + 1 })
      { ands = 0; ors = 0; xors = 0; nots = 0; consts = 0 }
      p.Gate.instrs
  in
  (* Forward pass: structural input support of every register. *)
  let set_bytes = (nv + 7) / 8 in
  let support = Array.init (nv + n) (fun _ -> Bytes.make (max 1 set_bytes) '\000') in
  for v = 0 to nv - 1 do
    bit_set support.(v) v
  done;
  Array.iteri
    (fun i instr ->
      let dst = support.(nv + i) in
      match instr with
      | Gate.And (x, y) | Gate.Or (x, y) | Gate.Xor (x, y) ->
        union dst support.(x);
        union dst support.(y)
      | Gate.Not x -> union dst support.(x)
      | Gate.Const _ -> ())
    p.Gate.instrs;
  (* Backward pass: liveness from outputs + valid. *)
  let live = Array.make n false in
  let stack = ref [] in
  let touch r =
    if r >= nv then begin
      let i = r - nv in
      if not live.(i) then begin
        live.(i) <- true;
        stack := i :: !stack
      end
    end
  in
  Array.iter touch p.Gate.outputs;
  (match p.Gate.valid with Some r -> touch r | None -> ());
  let rec drain () =
    match !stack with
    | [] -> ()
    | i :: rest ->
      stack := rest;
      (match p.Gate.instrs.(i) with
      | Gate.And (x, y) | Gate.Or (x, y) | Gate.Xor (x, y) ->
        touch x;
        touch y
      | Gate.Not x -> touch x
      | Gate.Const _ -> ());
      drain ()
  in
  drain ();
  { program = p; verdict; census; live; support }

let verified t = t.verdict
let census t = t.census
let live t = t.live

let dead_instrs t =
  let acc = ref [] in
  for i = Array.length t.live - 1 downto 0 do
    if not t.live.(i) then acc := i :: !acc
  done;
  !acc

let support_list t r =
  let nv = t.program.Gate.num_vars in
  let acc = ref [] in
  for v = nv - 1 downto 0 do
    if bit_get t.support.(r) v then acc := v :: !acc
  done;
  !acc

let unused_inputs t =
  let p = t.program in
  let nv = p.Gate.num_vars in
  let used = Array.make nv false in
  let mark r = List.iter (fun v -> used.(v) <- true) (support_list t r) in
  Array.iter mark p.Gate.outputs;
  (match p.Gate.valid with Some r -> mark r | None -> ());
  let acc = ref [] in
  for v = nv - 1 downto 0 do
    if not used.(v) then acc := v :: !acc
  done;
  !acc


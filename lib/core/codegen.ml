let reg_name (p : Gate.t) r =
  if r < p.Gate.num_vars then Printf.sprintf "b[%d]" r
  else Printf.sprintf "t%d" (r - p.Gate.num_vars)

let to_c ?(name = "ct_gauss_sample") (p : Gate.t) =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "/* Generated by ctgauss: constant-time bitsliced discrete Gaussian\n";
  out "   sampler (%d input bits, %d gates). */\n" p.Gate.num_vars
    (Gate.gate_count p);
  out "#include <stdint.h>\n\n";
  out "void %s(const uint64_t *b, uint64_t *out)\n{\n" name;
  Array.iteri
    (fun i instr ->
      let d = Printf.sprintf "t%d" i in
      match instr with
      | Gate.And (x, y) ->
        out "  uint64_t %s = %s & %s;\n" d (reg_name p x) (reg_name p y)
      | Gate.Or (x, y) ->
        out "  uint64_t %s = %s | %s;\n" d (reg_name p x) (reg_name p y)
      | Gate.Xor (x, y) ->
        out "  uint64_t %s = %s ^ %s;\n" d (reg_name p x) (reg_name p y)
      | Gate.Not x -> out "  uint64_t %s = ~%s;\n" d (reg_name p x)
      | Gate.Const true -> out "  uint64_t %s = ~(uint64_t)0;\n" d
      | Gate.Const false -> out "  uint64_t %s = 0;\n" d)
    p.Gate.instrs;
  Array.iteri
    (fun i r -> out "  out[%d] = %s;\n" i (reg_name p r))
    p.Gate.outputs;
  (match p.Gate.valid with
  | Some r -> out "  out[%d] = %s; /* valid */\n" (Array.length p.Gate.outputs) (reg_name p r)
  | None -> ());
  out "}\n";
  Buffer.contents buf

(* A single flat function of thousands of [let]s takes ocamlopt minutes
   (14 s at σ=2, 123 s at σ=6.15543); chunks of this size compile in
   about a second and run as fast. *)
let chunk_gates = 512

let sources = function
  | Gate.And (x, y) | Gate.Or (x, y) | Gate.Xor (x, y) -> [ x; y ]
  | Gate.Not x -> [ x ]
  | Gate.Const _ -> []

let to_ocaml ?(name = "ct_gauss_sample") (p : Gate.t) =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let nv = p.Gate.num_vars and n = Array.length p.Gate.instrs in
  let chunks = max 1 ((n + chunk_gates - 1) / chunk_gates) in
  let chunk_of r = if r < nv then -1 else (r - nv) / chunk_gates in
  (* A gate result is stored when a later chunk reads it or it is an
     output or the valid flag. *)
  let stored = Array.make (nv + n) false in
  Array.iter (fun r -> stored.(r) <- true) p.Gate.outputs;
  Option.iter (fun r -> stored.(r) <- true) p.Gate.valid;
  Array.iteri
    (fun i instr ->
      List.iter
        (fun r -> if chunk_of r < i / chunk_gates then stored.(r) <- true)
        (sources instr))
    p.Gate.instrs;
  out "(* Generated by ctgauss: %d input bits, %d gates in %d chunk(s); 63 lanes.\n"
    nv (Gate.gate_count p) chunks;
  out "   [b] is the register file: b.(0 .. %d) hold the input bit words, and\n"
    (nv - 1);
  out "   each output, the valid flag and every value read by a later chunk\n";
  out "   is stored at its register index. *)\n";
  for c = 0 to chunks - 1 do
    let lo = c * chunk_gates and hi = min n ((c + 1) * chunk_gates) in
    out "let %s_c%d (b : int array) =\n" name c;
    (* Each value from outside the chunk is loaded just before its first
       use, which keeps it out of the registers until then. *)
    let loaded = Array.make (nv + n) false in
    for i = lo to hi - 1 do
      let d = nv + i in
      List.iter
        (fun r ->
          if chunk_of r < c && not loaded.(r) then begin
            loaded.(r) <- true;
            out "  let r%d = Array.unsafe_get b %d in\n" r r
          end)
        (sources p.Gate.instrs.(i));
      (match p.Gate.instrs.(i) with
      | Gate.And (x, y) -> out "  let r%d = r%d land r%d in\n" d x y
      | Gate.Or (x, y) -> out "  let r%d = r%d lor r%d in\n" d x y
      | Gate.Xor (x, y) -> out "  let r%d = r%d lxor r%d in\n" d x y
      | Gate.Not x -> out "  let r%d = lnot r%d in\n" d x
      | Gate.Const true -> out "  let r%d = -1 in\n" d
      | Gate.Const false -> out "  let r%d = 0 in\n" d);
      if stored.(d) then out "  Array.unsafe_set b %d r%d;\n" d d
    done;
    out "  ()\n\n"
  done;
  out "let %s (b : int array) : unit =\n" name;
  out "  if Array.length b < %d then invalid_arg \"%s: register file too short\";\n"
    (nv + n) name;
  for c = 0 to chunks - 1 do
    out "  %s_c%d b%s\n" name c (if c < chunks - 1 then ";" else "")
  done;
  Buffer.contents buf

(* DOT string/identifier escaping: the graph name and labels are caller
   or program supplied, so quote them and escape quotes/backslashes to
   keep the output parseable whatever the sampler is called. *)
let dot_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Deterministic emission order — all node declarations in register order,
   then all edges in register order — so two runs over the same program
   produce byte-identical files and analyzer DOT diffs in CI artifacts
   review cleanly. *)
let to_dot ?(name = "ctgauss") (p : Gate.t) =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "digraph \"%s\" {\n  rankdir=LR;\n" (dot_escape name);
  for v = 0 to p.Gate.num_vars - 1 do
    out "  b%d [shape=circle,label=\"b%d\"];\n" v v
  done;
  let node r =
    if r < p.Gate.num_vars then Printf.sprintf "b%d" r
    else Printf.sprintf "g%d" (r - p.Gate.num_vars)
  in
  Array.iteri
    (fun i instr ->
      let label =
        match instr with
        | Gate.And _ -> "AND"
        | Gate.Or _ -> "OR"
        | Gate.Xor _ -> "XOR"
        | Gate.Not _ -> "NOT"
        | Gate.Const b -> if b then "1" else "0"
      in
      out "  g%d [shape=box,label=\"%s\"];\n" i (dot_escape label))
    p.Gate.instrs;
  Array.iteri (fun i _ -> out "  out%d [shape=doublecircle];\n" i) p.Gate.outputs;
  (match p.Gate.valid with
  | Some _ -> out "  valid [shape=doublecircle,label=\"valid\"];\n"
  | None -> ());
  Array.iteri
    (fun i instr ->
      List.iter (fun s -> out "  %s -> g%d;\n" (node s) i) (sources instr))
    p.Gate.instrs;
  Array.iteri (fun i r -> out "  %s -> out%d;\n" (node r) i) p.Gate.outputs;
  (match p.Gate.valid with
  | Some r -> out "  %s -> valid;\n" (node r)
  | None -> ());
  out "}\n";
  Buffer.contents buf

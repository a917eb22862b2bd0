(* The paper's core: gate IR, both compilers, bitsliced evaluation, and
   the central equivalence property — the compiled constant-time program
   agrees with Algorithm 1 on every input bit string. *)

module Gate = Ctgauss.Gate
module Bitslice = Ctgauss.Bitslice
module Sublist = Ctgauss.Sublist
module Compile = Ctgauss.Compile
module Compile_simple = Ctgauss.Compile_simple
module Sampler = Ctgauss.Sampler
module Codegen = Ctgauss.Codegen
module Pipeline = Ctgauss.Pipeline
module Matrix = Ctg_kyao.Matrix
module Le = Ctg_kyao.Leaf_enum
module Cs = Ctg_kyao.Column_sampler
module Bs = Ctg_prng.Bitstream

let enum_of sigma precision =
  Le.enumerate (Matrix.create ~sigma ~precision ~tail_cut:13)

let enum_mid = enum_of "2" 24
let enum_wide = enum_of "3.33" 20

let random_bits rng n =
  Array.init n (fun _ -> Ctg_prng.Splitmix64.next_int rng 2 = 1)

let gate_tests =
  [
    Alcotest.test_case "builder CSE shares identical gates" `Quick (fun () ->
        let b = Gate.builder ~num_vars:4 () in
        let x = Gate.var b 0 and y = Gate.var b 1 in
        let a1 = Gate.band b x y in
        let a2 = Gate.band b y x in
        Alcotest.(check int) "commutative sharing" a1 a2;
        let p = Gate.finish b ~outputs:[| a1 |] ~valid:None in
        Alcotest.(check int) "one gate" 1 (Gate.gate_count p));
    Alcotest.test_case "constant folding" `Quick (fun () ->
        let b = Gate.builder ~num_vars:2 () in
        let x = Gate.var b 0 in
        let t = Gate.const b true and f = Gate.const b false in
        Alcotest.(check int) "x & 1 = x" x (Gate.band b x t);
        Alcotest.(check int) "x | 0 = x" x (Gate.bor b x f);
        Alcotest.(check int) "x & 0 = 0" f (Gate.band b x f);
        Alcotest.(check int) "x ^ x = 0" f (Gate.bxor b x x);
        Alcotest.(check int) "x & x = x" x (Gate.band b x x));
    Alcotest.test_case "mux truth table" `Quick (fun () ->
        let b = Gate.builder ~num_vars:3 () in
        let out =
          Gate.mux b ~sel:(Gate.var b 0) ~if_one:(Gate.var b 1)
            ~if_zero:(Gate.var b 2)
        in
        let p = Gate.finish b ~outputs:[| out |] ~valid:None in
        List.iter
          (fun (s, a, z, want) ->
            let v, _ = Bitslice.eval_single p [| s; a; z |] in
            Alcotest.(check int)
              (Printf.sprintf "mux %b %b %b" s a z)
              want v)
          [
            (true, true, false, 1);
            (true, false, true, 0);
            (false, true, false, 0);
            (false, false, true, 1);
          ]);
    Alcotest.test_case "depth of a chain" `Quick (fun () ->
        let b = Gate.builder ~num_vars:4 () in
        let acc =
          List.fold_left (fun acc i -> Gate.band b acc (Gate.var b i))
            (Gate.var b 0) [ 1; 2; 3 ]
        in
        let p = Gate.finish b ~outputs:[| acc |] ~valid:None in
        Alcotest.(check int) "3 gates deep" 3 (Gate.depth p));
    Alcotest.test_case "bitslice lanes are independent" `Quick (fun () ->
        let b = Gate.builder ~num_vars:2 () in
        let out = Gate.bxor b (Gate.var b 0) (Gate.var b 1) in
        let p = Gate.finish b ~outputs:[| out |] ~valid:None in
        let scratch = Bitslice.scratch p in
        (* Lane 0: 1^0, lane 1: 1^1, lane 2: 0^1. *)
        Bitslice.eval p scratch ~inputs:[| 0b011; 0b110 |];
        let w = Bitslice.output p scratch 0 in
        Alcotest.(check int) "lane0" 1 (w land 1);
        Alcotest.(check int) "lane1" 0 ((w lsr 1) land 1);
        Alcotest.(check int) "lane2" 1 ((w lsr 2) land 1));
  ]

(* [program] agrees with Alg. 1 on [trials] random strings. *)
let equivalence_one enum program trials seed =
  let m = enum.Le.matrix in
  let rng = Ctg_prng.Splitmix64.create seed in
  let ok = ref true in
  for _ = 1 to trials do
    let bits = random_bits rng m.Matrix.precision in
    let v, valid = Bitslice.eval_single program bits in
    (match Cs.walk_bits m bits with
    | Cs.Hit { value; _ } -> if not (valid && v = value) then ok := false
    | Cs.Exhausted -> if valid then ok := false)
  done;
  !ok

let split ?options enum = Compile.compile ?options (Sublist.build enum)

let compiler_tests =
  [
    Alcotest.test_case "split compiler = Alg.1 (sigma 2)" `Quick (fun () ->
        Alcotest.(check bool) "equivalent" true
          (equivalence_one enum_mid (split enum_mid) 4000 1L));
    Alcotest.test_case "simple compiler = Alg.1 (sigma 2)" `Quick (fun () ->
        Alcotest.(check bool) "equivalent" true
          (equivalence_one enum_mid (Compile_simple.compile enum_mid) 4000 2L));
    Alcotest.test_case "split compiler = Alg.1 (sigma 3.33)" `Quick (fun () ->
        Alcotest.(check bool) "equivalent" true
          (equivalence_one enum_wide (split enum_wide) 4000 3L));
    Alcotest.test_case "exhaustive equivalence at n=10" `Quick (fun () ->
        (* Every one of the 1024 input strings, not just samples. *)
        let enum = enum_of "1.2" 10 in
        let s = Sampler.of_enum enum in
        let m = enum.Le.matrix in
        for x = 0 to 1023 do
          let bits = Array.init 10 (fun i -> (x lsr i) land 1 = 1) in
          let v, valid = Sampler.eval_bits s bits in
          match Cs.walk_bits m bits with
          | Cs.Hit { value; _ } ->
            Alcotest.(check bool) "hit agrees" true (valid && v = value)
          | Cs.Exhausted -> Alcotest.(check bool) "miss agrees" false valid
        done);
    Alcotest.test_case "ablation: unshared selectors same function" `Quick
      (fun () ->
        let options = { Compile.default_options with share_selectors = false } in
        let p = split ~options enum_mid in
        Alcotest.(check bool) "equivalent" true (equivalence_one enum_mid p 2000 4L);
        Alcotest.(check bool) "sharing saves gates" true
          (Gate.gate_count (split enum_mid) < Gate.gate_count p));
    Alcotest.test_case "ablation: greedy minimize same function" `Quick
      (fun () ->
        let options = { Compile.default_options with exact_minimize = false } in
        Alcotest.(check bool) "equivalent" true
          (equivalence_one enum_mid (split ~options enum_mid) 2000 5L));
    Alcotest.test_case "all compiler option combinations are equivalent" `Slow
      (fun () ->
        (* 2^3 option matrix for the split compiler, plus the merged and
           unmerged baselines: all must agree with Alg. 1. *)
        let combos = ref [] in
        List.iter
          (fun flatten ->
            List.iter
              (fun share ->
                List.iter
                  (fun exact ->
                    combos :=
                      {
                        Compile.with_valid = true;
                        share_selectors = share;
                        exact_minimize = exact;
                        flatten_onehot = flatten;
                      }
                      :: !combos)
                  [ true; false ])
              [ true; false ])
          [ true; false ];
        List.iteri
          (fun i options ->
            Alcotest.(check bool)
              (Printf.sprintf "combo %d" i)
              true
              (equivalence_one enum_mid (split ~options enum_mid) 800
                 (Int64.of_int (100 + i))))
          !combos;
        let unmerged =
          Compile_simple.compile ~merge_adjacent:false enum_mid
        in
        let merged = Compile_simple.compile ~merge_adjacent:true enum_mid in
        let m = enum_mid.Le.matrix in
        let rng = Ctg_prng.Splitmix64.create 314L in
        for _ = 1 to 2000 do
          let bits = random_bits rng m.Matrix.precision in
          Alcotest.(check bool) "merge-invariant" true
            (Ctgauss.Bitslice.eval_single unmerged bits
            = Ctgauss.Bitslice.eval_single merged bits)
        done);
    Alcotest.test_case "no-valid program drops the flag" `Quick (fun () ->
        let options = { Compile.default_options with with_valid = false } in
        Alcotest.(check bool) "no valid reg" true
          ((split ~options enum_mid).Gate.valid = None));
    Alcotest.test_case "split beats simple at n=128 (Table 2 shape)" `Slow
      (fun () ->
        let enum = enum_of "2" 128 in
        let ours = Compile.compile (Sublist.build enum) in
        let simple = Compile_simple.compile enum in
        let go = Gate.gate_count ours and gs = Gate.gate_count simple in
        Alcotest.(check bool)
          (Printf.sprintf "ours=%d < simple=%d" go gs)
          true (go < gs));
    Alcotest.test_case "sop_report covers all sublists" `Quick (fun () ->
        let s = Sublist.build enum_mid in
        let report = Compile.sop_report s in
        Alcotest.(check int) "entries" (Array.length s.Sublist.entries)
          (Array.length report));
  ]

let sampler_tests =
  [
    Alcotest.test_case "batch returns 63 values in range" `Quick (fun () ->
        let s = Sampler.of_enum enum_mid in
        let bs = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "batch") in
        let batch = Sampler.batch_signed s bs in
        Alcotest.(check int) "lanes" 63 (Array.length batch);
        Array.iter
          (fun v ->
            Alcotest.(check bool) "in range" true
              (abs v <= enum_mid.Le.matrix.Matrix.support))
          batch);
    Alcotest.test_case "sample buffer refills" `Quick (fun () ->
        let s = Sampler.of_enum enum_mid in
        let bs = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "buffer") in
        for _ = 1 to 200 do
          ignore (Sampler.sample s bs)
        done;
        Alcotest.(check pass) "no exception" () ());
    Alcotest.test_case "distribution matches exact probabilities" `Slow
      (fun () ->
        let s = Sampler.of_enum enum_mid in
        let bs = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "distribution") in
        let trials = 63 * 1500 in
        let samples = Array.init trials (fun _ -> Sampler.sample s bs) in
        let emp =
          Ctg_stats.Distance.empirical samples
            ~support:enum_mid.Le.matrix.Matrix.support
        in
        let exact = Ctg_stats.Distance.exact_probabilities enum_mid.Le.matrix in
        let sd = Ctg_stats.Distance.statistical emp exact in
        Alcotest.(check bool)
          (Printf.sprintf "statistical distance %.4f" sd)
          true (sd < 0.02));
    Alcotest.test_case "create runs the full pipeline" `Quick (fun () ->
        let s = Sampler.create ~sigma:"1.7" ~precision:16 ~tail_cut:13 () in
        Alcotest.(check string) "sigma" "1.7" (Sampler.sigma s);
        Alcotest.(check bool) "has gates" true (Sampler.gate_count s > 0));
    Alcotest.test_case "interpreter clone = fresh sampler on the same stream"
      `Quick (fun () ->
        let master = Sampler.of_enum enum_wide in
        Alcotest.(check bool) "no kernel" false (Sampler.has_kernel master);
        (* Dirty the master's registers and buffers first: a clone must
           not inherit them. *)
        ignore (Sampler.sample master (Bs.of_chacha (Ctg_prng.Chacha20.of_seed "dirty")));
        let clone = Sampler.clone master in
        let fresh = Sampler.of_enum enum_wide in
        let stream () = Bs.of_chacha (Ctg_prng.Chacha20.of_seed "clone-eq") in
        let a = stream () and b = stream () in
        for i = 1 to 40 do
          Alcotest.(check (array int))
            (Printf.sprintf "batch %d" i)
            (Sampler.batch_signed fresh b) (Sampler.batch_signed clone a)
        done;
        for i = 1 to 100 do
          Alcotest.(check int)
            (Printf.sprintf "sample %d" i)
            (Sampler.sample fresh b) (Sampler.sample clone a)
        done;
        Alcotest.(check int) "resamples" (Sampler.resamples fresh)
          (Sampler.resamples clone));
    Alcotest.test_case "a clone allocates one register per gate, no decode"
      `Quick (fun () ->
        let master = Sampler.of_enum enum_wide in
        let n = Array.length (Sampler.program master).Gate.instrs in
        ignore (Sampler.clone master);
        (* [Gc.minor_words] is exact; [Gc.counters] counts the arrays too
           large for the minor heap as major allocations. *)
        let _, promoted0, major0 = Gc.counters () in
        let minor0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (Sampler.clone master));
        let minor1 = Gc.minor_words () in
        let _, promoted1, major1 = Gc.counters () in
        let words =
          minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
        in
        (* The register file (one word per gate and input) and a few
           hundred words of inputs, buffers and headers; decoding the
           table as well would cost four more words per gate. *)
        let bound = float_of_int ((2 * n) + 400) in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f words <= %.0f (%d gates)" words bound n)
          true (words <= bound));
  ]

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* A random well-formed program: every gate kind, operands anywhere
   before the gate, so values cross the emitter's chunk boundaries. *)
let random_program ~seed ~num_vars ~instrs =
  let rng = Ctg_prng.Splitmix64.create (Int64.of_int seed) in
  let pick i = Ctg_prng.Splitmix64.next_int rng (num_vars + i) in
  let instrs =
    Array.init instrs (fun i ->
        match Ctg_prng.Splitmix64.next_int rng 6 with
        | 0 -> Gate.And (pick i, pick i)
        | 1 -> Gate.Or (pick i, pick i)
        | 2 -> Gate.Xor (pick i, pick i)
        | 3 -> Gate.Not (pick i)
        | k -> Gate.Const (k = 4))
  in
  let n = num_vars + Array.length instrs in
  match
    Gate.make ~num_vars ~instrs
      ~outputs:[| n - 1; n / 2; 3; n - 600 |]
      ~valid:(Some (n - 2))
  with
  | Ok p -> p
  | Error e -> failwith e

(* Reads [Codegen.to_ocaml p] (default name) line by line and fails
   unless each line is one of the emitter's forms and the gates are
   exactly [p]'s, in order, on registers bound earlier in the same chunk
   (a computation) or loaded from a slot an earlier chunk stored. *)
let check_straight_line (p : Gate.t) ml =
  let nv = p.Gate.num_vars and n = Array.length p.Gate.instrs in
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.fail m) fmt in
  let stored = Array.init (nv + n) (fun r -> r < nv) in
  let bound = Hashtbl.create 1024 in
  let next_gate = ref 0 and chunks = ref 0 and chunk_gates = ref 0 in
  let calls = ref 0 and guard = ref false and header = ref true in
  let use r = if not (Hashtbl.mem bound r) then fail "r%d read before it is bound" r in
  let bind r =
    if Hashtbl.mem bound r then fail "r%d bound twice" r;
    Hashtbl.replace bound r ()
  in
  let gate d instr =
    if d <> nv + !next_gate || p.Gate.instrs.(!next_gate) <> instr then
      fail "r%d is not instruction %d of the program" d !next_gate;
    (match instr with
    | Gate.And (x, y) | Gate.Or (x, y) | Gate.Xor (x, y) ->
      use x;
      use y
    | Gate.Not x -> use x
    | Gate.Const _ -> ());
    bind d;
    incr next_gate;
    incr chunk_gates;
    if !chunk_gates > 512 then fail "chunk %d has over 512 gates" (!chunks - 1)
  in
  let line l =
    let scan fmt f = Scanf.sscanf_opt l fmt f in
    let ( <|> ) a b = match a with Some () -> Some () | None -> b () in
    let matched =
      (if l = "" then Some () else None)
      <|> (fun () ->
            scan "let ct_gauss_sample_c%d (b : int array) =%!" (fun c ->
                if c <> !chunks then fail "chunk %d out of order" c;
                incr chunks;
                chunk_gates := 0;
                Hashtbl.reset bound))
      <|> (fun () ->
            scan "  let r%d = Array.unsafe_get b %d in%!" (fun r k ->
                if r <> k || not stored.(r) then fail "load of r%d from slot %d" r k;
                bind r))
      <|> (fun () ->
            scan "  let r%d = r%d %s@ r%d in%!" (fun d x op y ->
                match op with
                | "land" -> gate d (Gate.And (x, y))
                | "lor" -> gate d (Gate.Or (x, y))
                | "lxor" -> gate d (Gate.Xor (x, y))
                | op -> fail "operator %s" op))
      <|> (fun () -> scan "  let r%d = lnot r%d in%!" (fun d x -> gate d (Gate.Not x)))
      <|> (fun () ->
            scan "  let r%d = %d in%!" (fun d v ->
                if v <> 0 && v <> -1 then fail "constant %d" v;
                gate d (Gate.Const (v = -1))))
      <|> (fun () ->
            scan "  Array.unsafe_set b %d r%d;%!" (fun k r ->
                if k <> r then fail "r%d stored to slot %d" r k;
                use r;
                stored.(r) <- true))
      <|> (fun () -> if l = "  ()" then Some () else None)
      <|> (fun () ->
            if l = "let ct_gauss_sample (b : int array) : unit =" then Some () else None)
      <|> (fun () ->
            if
              l
              = Printf.sprintf
                  "  if Array.length b < %d then invalid_arg \"ct_gauss_sample: register \
                   file too short\";"
                  (nv + n)
            then Some (guard := true)
            else None)
      <|> fun () ->
      scan "  ct_gauss_sample_c%d b%s@\n" (fun c rest ->
          if c <> !calls || not (rest = ";" || rest = "") then fail "call %S" l;
          incr calls)
    in
    if matched = None then fail "unexpected line %S" l
  in
  List.iter
    (fun l ->
      if !header then begin
        let len = String.length l in
        if len >= 2 && String.sub l (len - 2) 2 = "*)" then header := false
      end
      else line l)
    (String.split_on_char '\n' ml);
  if !next_gate <> n then fail "%d of %d gates emitted" !next_gate n;
  if not !guard then fail "no register-file length check";
  if !calls <> !chunks then fail "%d chunks, %d called" !chunks !calls;
  Array.iter (fun r -> if not stored.(r) then fail "output r%d not stored" r) p.Gate.outputs;
  Option.iter (fun r -> if not stored.(r) then fail "valid r%d not stored" r) p.Gate.valid

let codegen_tests =
  [
    Alcotest.test_case "C output contains the interface" `Quick (fun () ->
        let s = Sampler.of_enum enum_mid in
        let c = Codegen.to_c ~name:"sampler_sigma2" (Sampler.program s) in
        Alcotest.(check bool) "function" true
          (contains ~affix:"void sampler_sigma2(const uint64_t *b, uint64_t *out)" c);
        Alcotest.(check bool) "stdint" true
          (contains ~affix:"#include <stdint.h>" c));
    Alcotest.test_case "OCaml output parses visually" `Quick (fun () ->
        let s = Sampler.of_enum enum_mid in
        let ml = Codegen.to_ocaml (Sampler.program s) in
        Alcotest.(check bool) "let binding" true
          (contains ~affix:"let ct_gauss_sample (b : int array)" ml));
    Alcotest.test_case "OCaml output is straight-line register code" `Quick
      (fun () ->
        (* Every line must be one of the emitter's forms, each gate the
           program's own instruction on registers bound earlier in its
           chunk: no branch, loop or computed index can appear, which is
           what makes a generated kernel constant time (the op-count
           dudect test cannot see this). *)
        List.iter
          (fun p -> check_straight_line p (Codegen.to_ocaml p))
          [
            random_program ~seed:7 ~num_vars:12 ~instrs:1300;
            Sampler.program (Sampler.of_enum enum_wide);
          ]);
    Alcotest.test_case "dot output is a digraph" `Quick (fun () ->
        let enum = enum_of "1.2" 8 in
        let s = Sampler.of_enum enum in
        let dot = Codegen.to_dot (Sampler.program s) in
        Alcotest.(check bool) "digraph" true
          (contains ~affix:"digraph" (String.sub dot 0 7)));
  ]

let pipeline_tests =
  [
    Alcotest.test_case "pipeline reports five stages" `Quick (fun () ->
        let p = Pipeline.run ~sigma:"2" ~precision:16 ~tail_cut:13 () in
        Alcotest.(check int) "stages" 5 (List.length p.Pipeline.reports));
    Alcotest.test_case "pipeline program is the compiled one" `Quick (fun () ->
        let p = Pipeline.run ~sigma:"2" ~precision:16 ~tail_cut:13 () in
        Alcotest.(check bool) "gates > 0" true (Gate.gate_count p.Pipeline.program > 0);
        Alcotest.(check bool) "baseline too" true
          (Gate.gate_count p.Pipeline.simple_program > 0));
  ]

let prop_tests =
  let open QCheck in
  let split_sampler = Sampler.of_enum enum_mid in
  let simple_program = Compile_simple.compile enum_mid in
  let wide_sampler = Sampler.of_enum (enum_of "100" 10) in
  List.map QCheck_alcotest.to_alcotest
    [
      Test.make ~name:"both compilers agree with each other" ~count:400
        small_nat
        (fun seed ->
          let rng = Ctg_prng.Splitmix64.create (Int64.of_int (seed * 131)) in
          let bits = random_bits rng 24 in
          Bitslice.eval_single (Sampler.program split_sampler) bits
          = Bitslice.eval_single simple_program bits);
      Test.make ~name:"bitsliced batch = 63 single evaluations" ~count:20
        small_nat
        (fun seed ->
          (* Drive the program with one word per variable and check every
             lane against eval_single on the same per-lane bits; the wide
             program has more than 8 output bits, so the transpose stacks
             them in two passes. *)
          List.for_all
            (fun p ->
              let rng = Ctg_prng.Splitmix64.create (Int64.of_int (seed + 555)) in
              let nv = p.Gate.num_vars in
              let inputs =
                Array.init nv (fun _ -> Int64.to_int (Ctg_prng.Splitmix64.next rng))
              in
              let scratch = Bitslice.scratch p in
              Bitslice.eval p scratch ~inputs;
              let mags = Bitslice.magnitudes p scratch in
              let valid = Bitslice.valid_word p scratch in
              let ok = ref true in
              for lane = 0 to Bitslice.lanes - 1 do
                let bits = Array.init nv (fun v -> (inputs.(v) lsr lane) land 1 = 1) in
                let v, ok1 = Ctgauss.Bitslice.eval_single p bits in
                if ok1 <> ((valid lsr lane) land 1 = 1) then ok := false;
                if ok1 && v <> mags.(lane) then ok := false
              done;
              !ok)
            [ Sampler.program split_sampler; Sampler.program wide_sampler ]);
    ]

let () =
  Alcotest.run "core"
    [
      ("gate", gate_tests);
      ("compilers", compiler_tests);
      ("sampler", sampler_tests);
      ("codegen", codegen_tests);
      ("pipeline", pipeline_tests);
      ("properties", prop_tests);
    ]

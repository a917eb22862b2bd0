module Jsonx = Ctg_obs.Jsonx
module Gate = Ctgauss.Gate
module Compile = Ctgauss.Compile

type target = { sigma : string; precision : int; tail_cut : int }

(* Test precision: large enough that every sigma has a non-trivial
   selector chain and payload windows, small enough that the full 8-way
   option matrix compiles and proves in seconds even at sigma = 215
   (support 2795). *)
let default_targets =
  [
    { sigma = "1"; precision = 16; tail_cut = 13 };
    { sigma = "2"; precision = 16; tail_cut = 13 };
    { sigma = "6.15543"; precision = 16; tail_cut = 13 };
    { sigma = "215"; precision = 16; tail_cut = 13 };
  ]

type result = {
  target : target;
  gates : int;
  depth : int;
  simple_gates : int;
  proofs : Report.proof list;
  findings : Report.finding list;
  bdd_nodes : int;
}

let option_matrix =
  List.concat_map
    (fun share ->
      List.concat_map
        (fun exact ->
          List.map
            (fun flatten ->
              {
                Compile.with_valid = true;
                share_selectors = share;
                exact_minimize = exact;
                flatten_onehot = flatten;
              })
            [ true; false ])
        [ true; false ])
    [ true; false ]

let options_label (o : Compile.options) =
  let flag name v = if v then name else "no-" ^ name in
  Printf.sprintf "%s,%s,%s"
    (flag "share" o.Compile.share_selectors)
    (flag "exact" o.Compile.exact_minimize)
    (flag "flat" o.Compile.flatten_onehot)

let run ?(slack_pct = 0.0) ?baseline target =
  let { sigma; precision; tail_cut } = target in
  let where = Printf.sprintf "sigma=%s n=%d" sigma precision in
  let enum =
    Ctg_kyao.Leaf_enum.enumerate
      (Ctg_kyao.Matrix.create ~sigma ~precision ~tail_cut)
  in
  let sublists = Ctgauss.Sublist.build enum in
  let simple = Ctgauss.Compile_simple.compile enum in
  let program = Compile.compile sublists in
  let man = Bdd.create ~num_vars:precision in
  let proofs = ref [] in
  let push p = proofs := p :: !proofs in
  (* Taint verification: branch-free fragment + well-formed registers. *)
  let taint_proof name p =
    match Taint.verified (Taint.analyze p) with
    | Ok () ->
      push
        (Report.proof
           ~name:(Printf.sprintf "branch-free(%s)" name)
           ~holds:true
           ~evidence:
             (Printf.sprintf
                "%d instructions, all AND/OR/XOR/NOT/const with backward \
                 register references only"
                (Array.length p.Gate.instrs)))
    | Error e ->
      push
        (Report.proof
           ~name:(Printf.sprintf "branch-free(%s)" name)
           ~holds:false ~evidence:e)
  in
  taint_proof "optimized" program;
  taint_proof "simple" simple;
  (* Equivalence of the full option matrix against the naive reference. *)
  List.iter
    (fun options ->
      let p = Compile.compile ~options sublists in
      let v = Equiv.equivalent man p simple in
      push
        (Report.proof
           ~name:(Printf.sprintf "equiv[%s]" (options_label options))
           ~holds:(v.Equiv.valid_equal && v.Equiv.outputs_equal_on_valid)
           ~evidence:v.Equiv.detail))
    option_matrix;
  (* Selector one-hotness / exhaustiveness, against the compiled valid. *)
  let _, valid_bdd = Equiv.program_bdds man program in
  (match valid_bdd with
  | None ->
    push
      (Report.proof ~name:"selectors-one-hot" ~holds:false
         ~evidence:"default-options program has no valid flag")
  | Some valid ->
    let sv =
      Equiv.selectors_one_hot man
        ~num_entries:(Array.length sublists.Ctgauss.Sublist.entries)
        ~valid
    in
    push
      (Report.proof ~name:"selectors-one-hot" ~holds:sv.Equiv.one_hot
         ~evidence:sv.Equiv.sel_detail);
    push
      (Report.proof ~name:"selectors-exhaustive"
         ~holds:sv.Equiv.exhaustive_on_valid ~evidence:sv.Equiv.sel_detail));
  (* Lints. *)
  let findings =
    Lint.lint ~name:(where ^ " optimized") program
    @ Lint.lint ~name:(where ^ " simple") simple
  in
  (* Gate budget vs the committed baseline. *)
  let measured =
    {
      Budget.sigma;
      precision;
      tail_cut;
      gates = Gate.gate_count program;
      depth = Gate.depth program;
      simple_gates = Gate.gate_count simple;
    }
  in
  let budget_findings =
    match baseline with
    | None -> []
    | Some b -> (
      match Budget.find b ~sigma ~precision ~tail_cut with
      | Some baseline -> Budget.check ~slack_pct ~baseline measured
      | None ->
        [
          Report.finding Report.Error ~rule:"gate-budget" ~where
            "no baseline entry for this target — regenerate BENCH_gates.json";
        ])
  in
  {
    target;
    gates = measured.Budget.gates;
    depth = measured.Budget.depth;
    simple_gates = measured.Budget.simple_gates;
    proofs = List.rev !proofs;
    findings = findings @ budget_findings;
    bdd_nodes = Bdd.node_count man;
  }

let ok r =
  List.for_all (fun (p : Report.proof) -> p.Report.holds) r.proofs
  && not (List.exists Report.fails_ci r.findings)

let measure target =
  Budget.measure ~sigma:target.sigma ~precision:target.precision
    ~tail_cut:target.tail_cut

let pp fmt r =
  Format.fprintf fmt "== sigma=%s n=%d tail_cut=%d ==@." r.target.sigma
    r.target.precision r.target.tail_cut;
  Format.fprintf fmt "gates=%d depth=%d simple_gates=%d (BDD nodes: %d)@."
    r.gates r.depth r.simple_gates r.bdd_nodes;
  List.iter (fun p -> Format.fprintf fmt "  %a@." Report.pp_proof p) r.proofs;
  if r.findings = [] then Format.fprintf fmt "  no findings@."
  else
    List.iter
      (fun f -> Format.fprintf fmt "  %a@." Report.pp_finding f)
      r.findings

let to_json r =
  Jsonx.Obj
    [
      ("sigma", Jsonx.Str r.target.sigma);
      ("precision", Jsonx.Num (float_of_int r.target.precision));
      ("tail_cut", Jsonx.Num (float_of_int r.target.tail_cut));
      ("gates", Jsonx.Num (float_of_int r.gates));
      ("depth", Jsonx.Num (float_of_int r.depth));
      ("simple_gates", Jsonx.Num (float_of_int r.simple_gates));
      ("bdd_nodes", Jsonx.Num (float_of_int r.bdd_nodes));
      ("ok", Jsonx.Bool (ok r));
      ("proofs", Jsonx.List (List.map Report.proof_to_json r.proofs));
      ("findings", Jsonx.List (List.map Report.finding_to_json r.findings));
    ]

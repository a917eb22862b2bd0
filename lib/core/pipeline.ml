type stage_report = { stage : string; detail : string }

type t = {
  matrix : Ctg_kyao.Matrix.t;
  enum : Ctg_kyao.Leaf_enum.t;
  sublists : Sublist.t;
  program : Gate.t;
  simple_program : Gate.t;
  reports : stage_report list;
}

let run ~sigma ~precision ~tail_cut () =
  let matrix = Ctg_kyao.Matrix.create ~sigma ~precision ~tail_cut in
  let enum = Ctg_kyao.Leaf_enum.enumerate matrix in
  let sublists = Sublist.build enum in
  let program = Compile.compile sublists in
  let simple_program = Compile_simple.compile enum in
  let non_empty =
    Array.fold_left
      (fun acc (e : Sublist.entry) -> if e.Sublist.leaves = [] then acc else acc + 1)
      0 sublists.Sublist.entries
  in
  let reports =
    [
      {
        stage = "probability matrix";
        detail =
          Printf.sprintf "sigma=%s n=%d rows=%d" sigma precision
            (matrix.Ctg_kyao.Matrix.support + 1);
      };
      {
        stage = "list L (leaf enumeration)";
        detail =
          Printf.sprintf "%d strings, Theorem 1 holds=%b, unresolved=%d"
            (Array.length enum.Ctg_kyao.Leaf_enum.leaves)
            (Ctg_kyao.Leaf_enum.check_theorem1 enum)
            enum.Ctg_kyao.Leaf_enum.unresolved;
      };
      {
        stage = "sort + split into sublists l_k";
        detail =
          Printf.sprintf "delta=%d, n'=%d, %d non-empty sublists"
            enum.Ctg_kyao.Leaf_enum.delta enum.Ctg_kyao.Leaf_enum.max_ones
            non_empty;
      };
      {
        stage = "minimize per-sublist functions f^{i,k}_delta";
        detail =
          (let reports = Compile.sop_report sublists in
           let terms = Array.fold_left (fun a (_, t, _) -> a + t) 0 reports in
           let lits = Array.fold_left (fun a (_, _, l) -> a + l) 0 reports in
           Printf.sprintf "%d terms, %d literals after exact minimization"
             terms lits);
      };
      {
        stage = "combine with constant-time selector chain (Eqn. 2)";
        detail =
          Printf.sprintf "%d gates, depth %d (simple baseline: %d gates)"
            (Gate.gate_count program) (Gate.depth program)
            (Gate.gate_count simple_program);
      };
    ]
  in
  { matrix; enum; sublists; program; simple_program; reports }

let pp fmt t =
  List.iteri
    (fun i r ->
      if i > 0 then Format.fprintf fmt "        |@.        v@.";
      Format.fprintf fmt "[%d] %s@.    %s@." (i + 1) r.stage r.detail)
    t.reports

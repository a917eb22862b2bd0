(* ctg_lint: static analyzer gate for the sampler compilers.

     ctg_lint                         # prove + lint the Table-2 sigmas
     ctg_lint --json                  # machine-readable findings list (CI)
     ctg_lint --sigma 2 --precision 20
     ctg_lint --baseline BENCH_gates.json
     ctg_lint --write-baseline        # refresh BENCH_gates.json

   Exit status is 0 iff every proof holds and no Warning/Error finding
   fired (gate-budget regressions are Error findings). *)

open Cmdliner
module A = Ctg_analysis.Analyze

let sigmas_arg =
  let doc =
    "Sigma to analyze (repeatable).  Default: the Table-2 set 1, 2, \
     6.15543, 215."
  in
  Arg.(value & opt_all string [] & info [ "sigma" ] ~docv:"SIGMA" ~doc)

let precision_arg =
  let doc = "Binary precision n for the analysis (test precision)." in
  Arg.(value & opt int 16 & info [ "precision"; "p" ] ~docv:"N" ~doc)

let tail_cut_arg =
  let doc = "Tail cut factor tau." in
  Arg.(value & opt int 13 & info [ "tail-cut" ] ~docv:"TAU" ~doc)

let json_arg =
  let doc = "Emit a JSON findings list instead of human output." in
  Arg.(value & flag & info [ "json" ] ~doc)

let baseline_arg =
  let doc = "Gate-budget baseline file to check against." in
  Arg.(value & opt string "BENCH_gates.json"
       & info [ "baseline" ] ~docv:"FILE" ~doc)

let no_baseline_arg =
  let doc = "Skip the gate-budget check even if the baseline file exists." in
  Arg.(value & flag & info [ "no-baseline" ] ~doc)

let write_baseline_arg =
  let doc =
    "Measure the targets and (re)write the baseline file instead of \
     checking against it."
  in
  Arg.(value & flag & info [ "write-baseline" ] ~doc)

let slack_arg =
  let doc = "Percent slack allowed over the gate/depth baseline." in
  Arg.(value & opt float 0.0 & info [ "slack" ] ~docv:"PCT" ~doc)

let targets sigmas precision tail_cut =
  match sigmas with
  | [] ->
    if precision = 16 && tail_cut = 13 then A.default_targets
    else
      List.map
        (fun (t : A.target) -> { t with A.precision; tail_cut })
        A.default_targets
  | ss -> List.map (fun sigma -> { A.sigma; precision; tail_cut }) ss

let run sigmas precision tail_cut json baseline_path no_baseline write_baseline
    slack =
  let targets = targets sigmas precision tail_cut in
  if write_baseline then begin
    let entries = List.map A.measure targets in
    Ctg_analysis.Budget.save baseline_path { Ctg_analysis.Budget.entries };
    Format.printf "wrote %s (%d entries)@." baseline_path
      (List.length entries);
    0
  end
  else begin
    let baseline =
      if no_baseline then None
      else if Sys.file_exists baseline_path then
        match Ctg_analysis.Budget.load baseline_path with
        | Ok b -> Some b
        | Error e ->
          Format.eprintf "ctg_lint: cannot read %s: %s@." baseline_path e;
          exit 2
      else None
    in
    let results = List.map (A.run ~slack_pct:slack ?baseline) targets in
    let all_ok = List.for_all A.ok results in
    if json then
      print_string
        (Ctg_obs.Jsonx.pretty
           (Ctg_obs.Jsonx.Obj
              [
                ("tool", Ctg_obs.Jsonx.Str "ctg_lint");
                ( "baseline_checked",
                  Ctg_obs.Jsonx.Bool (baseline <> None) );
                ("ok", Ctg_obs.Jsonx.Bool all_ok);
                ( "targets",
                  Ctg_obs.Jsonx.List (List.map A.to_json results) );
              ]))
    else begin
      List.iter (fun r -> Format.printf "%a@." A.pp r) results;
      (match baseline with
      | Some _ -> Format.printf "gate budgets checked against %s@." baseline_path
      | None ->
        Format.printf
          "no gate-budget baseline checked (missing %s or --no-baseline)@."
          baseline_path);
      Format.printf "%s@."
        (if all_ok then "OK: all proofs hold, no findings"
         else "FAILED: see refuted proofs / findings above")
    end;
    if all_ok then 0 else 1
  end

(* ---------------------------------------------------------------- *)
(* `ctg_lint race`: the shared-state lint (Ctg_race.Lint_race) over    *)
(* the concurrent subsystems.                                          *)
(* ---------------------------------------------------------------- *)

let root_arg =
  let doc = "Repository root to scan (contains lib/)." in
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc)

let race_run json root =
  let module L = Ctg_race.Lint_race in
  let findings, errors, files = L.scan_dirs ~root () in
  let ok = findings = [] && errors = [] in
  if json then
    print_string (Ctg_obs.Jsonx.pretty (L.report_to_json ~files ~errors findings))
  else begin
    List.iter (fun f -> Format.printf "%a@." L.pp_finding f) findings;
    List.iter (fun e -> Format.printf "%s@." e) errors;
    Format.printf "%s (%d files scanned)@."
      (if ok then "OK: no naked primitives, no unguarded shared state"
       else
         Printf.sprintf "FAILED: %d findings, %d errors" (List.length findings)
           (List.length errors))
      files
  end;
  if ok then 0 else 1

let race_cmd =
  let doc =
    "lint the concurrent subsystems for naked Atomic/Mutex/Condition \
     uses outside the Ctg_sync shim, Condition.wait without a predicate \
     loop, and unguarded module-level mutable state"
  in
  Cmd.v (Cmd.info "race" ~doc) Term.(const race_run $ json_arg $ root_arg)

let default_term =
  Term.(
    const run $ sigmas_arg $ precision_arg $ tail_cut_arg $ json_arg
    $ baseline_arg $ no_baseline_arg $ write_baseline_arg $ slack_arg)

let cmd =
  let doc =
    "statically verify the constant-time sampler compilers (taint, BDD \
     equivalence, selector one-hotness, gate budgets); `ctg_lint race` \
     checks the concurrency hygiene of the engine instead"
  in
  (* A group with a default term: the historical `ctg_lint --json` CLI
     (what CI invokes) keeps working unchanged. *)
  Cmd.group ~default:default_term
    (Cmd.info "ctg_lint" ~version:"1.0" ~doc)
    [ race_cmd ]

let () = exit (Cmd.eval' cmd)

(* ctg_chaos: run the fault matrix end-to-end and demand zero silent
   outcomes.

     ctg_chaos                        # full sigma set, human report
     ctg_chaos --json chaos.json      # plus the CI artifact
     ctg_chaos --smoke                # two cheap parameter sets
     ctg_chaos --sigma 2 -p 16        # one parameter set
     ctg_chaos --seed 0xDEADBEEF      # reproduce a failing run exactly

   Every fault position, bias draw and corruption site derives from the
   printed master seed, so any outcome reproduces from the report alone.
   Exit code 1 iff any case is silent (a fault that corrupted output with
   no defense signal). *)

open Cmdliner
module Chaos = Ctg_fault.Chaos

let smoke_set = [ ("2", 16); ("215", 16) ]

let run_matrix seed domains smoke sigma precision tail_cut json_out =
  let seed =
    match seed with
    | None -> 0x00C0FFEE5EEDL
    | Some s -> (
      try Int64.of_string s
      with _ -> failwith (Printf.sprintf "unparseable seed %S" s))
  in
  let set =
    match sigma with
    | Some s -> [ (s, precision) ]
    | None -> if smoke then smoke_set else Ctgauss.Sampler.paper_keys
  in
  Format.printf "chaos matrix, master seed 0x%Lx (pass --seed to reproduce)@.@."
    seed;
  let reports =
    List.map
      (fun (sigma, precision) ->
        let r = Chaos.run ~seed ~domains ~sigma ~precision ~tail_cut () in
        Format.printf "%a@." Chaos.pp_report r;
        r)
      set
  in
  (match json_out with
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Ctg_obs.Jsonx.pretty (Chaos.to_json reports));
        output_char oc '\n');
    Format.printf "wrote %s@." path
  | None -> ());
  let silent = Chaos.silent_cases reports in
  if silent = [] then
    Format.printf "OK: every injected fault was detected or contained@."
  else begin
    Format.printf "FAIL: %d silent outcome(s):@." (List.length silent);
    List.iter (fun c -> Format.printf "%a@." Chaos.pp_case c) silent;
    exit 1
  end

let seed_arg =
  Arg.(value & opt (some string) None
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"Master seed (decimal or 0x-hex) for exact reproduction.")

let parse_seed ~default = function
  | None -> default
  | Some s -> (
    try Int64.of_string s
    with _ -> failwith (Printf.sprintf "unparseable seed %S" s))

(* ratio-attack: race a key-recovery estimator against the monitors over
   deliberately biased signing pipelines; fail if the attack ever gets
   key-correlation signal at or before the earliest monitor alarm. *)
let run_ratio seed smoke budget json_out =
  let module Ratio = Ctg_saga.Ratio in
  let seed = parse_seed ~default:0x00C0FFEE5EEDL seed in
  let base = if smoke then Ratio.smoke_config else Ratio.default_config in
  let config =
    match budget with None -> base | Some b -> { base with Ratio.budget = b }
  in
  Format.printf
    "ratio-attack harness, master seed 0x%Lx (pass --seed to reproduce)@.@."
    seed;
  let r = Ratio.run ~config ~seed () in
  Format.printf "%a@." Ratio.pp_report r;
  (match json_out with
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Ctg_obs.Jsonx.pretty (Ratio.to_json r));
        output_char oc '\n');
    Format.printf "wrote %s@." path
  | None -> ());
  if not r.Ratio.ok then exit 1

let ratio_cmd =
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"CI-sized run: two severities at a 512-signature budget.")
  in
  let budget =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~docv:"SIGS"
             ~doc:"Signature budget per severity (default 2048; smoke 512).")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json"; "o" ] ~docv:"FILE"
             ~doc:"Write the machine-readable crossover table here.")
  in
  let doc =
    "Race a Ratio-attack-style key-recovery estimator against the \
     drift monitor and the acceptance battery over deliberately \
     biased samplers; fail on any attack-wins-first outcome."
  in
  Cmd.v (Cmd.info "ratio-attack" ~doc)
    Term.(const run_ratio $ seed_arg $ smoke $ budget $ json_out)

let matrix_term =
  let seed = seed_arg in
  let domains =
    Arg.(value & opt int Chaos.default_domains
         & info [ "domains"; "d" ] ~docv:"P" ~doc:"Worker domains per pool.")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"CI-sized run: sigma 2 and 215 at precision 16.")
  in
  let sigma =
    Arg.(value & opt (some string) None
         & info [ "sigma" ] ~docv:"SIGMA"
             ~doc:"Run a single parameter set at this sigma.")
  in
  let precision =
    Arg.(value & opt int 16
         & info [ "precision"; "p" ] ~docv:"N"
             ~doc:"Probability precision for --sigma.")
  in
  let tail_cut =
    Arg.(value & opt int 13 & info [ "tail-cut" ] ~docv:"TAU" ~doc:"Tail cut.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json"; "o" ] ~docv:"FILE"
             ~doc:"Write the machine-readable report here.")
  in
  Term.(
    const run_matrix $ seed $ domains $ smoke $ sigma $ precision $ tail_cut
    $ json_out)

let matrix_cmd =
  let doc =
    "Inject the modeled fault matrix (randomness, gate tables, workers, \
     signing) into live pipelines and fail on any silent outcome."
  in
  Cmd.v (Cmd.info "matrix" ~doc) matrix_term

let () =
  let doc =
    "fault matrix and adversarial harnesses; with no subcommand, runs the \
     fault matrix"
  in
  let info = Cmd.info "ctg_chaos" ~version:"1.0" ~doc in
  (* `ctg_chaos [flags]` (no subcommand) keeps running the matrix, as CI
     and the docs always have. *)
  exit (Cmd.eval (Cmd.group ~default:matrix_term info [ matrix_cmd; ratio_cmd ]))

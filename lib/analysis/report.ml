module Jsonx = Ctg_obs.Jsonx

type severity = Info | Warning | Error

type finding = {
  severity : severity;
  rule : string;
  where : string;
  detail : string;
}

type proof = { name : string; holds : bool; evidence : string }

let finding severity ~rule ~where detail = { severity; rule; where; detail }
let proof ~name ~holds ~evidence = { name; holds; evidence }

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let fails_ci f = match f.severity with Info -> false | Warning | Error -> true

let pp_finding fmt f =
  Format.fprintf fmt "%-7s %-16s %s: %s"
    (severity_to_string f.severity)
    f.rule f.where f.detail

let pp_proof fmt p =
  Format.fprintf fmt "%s %s — %s"
    (if p.holds then "PROVED " else "REFUTED")
    p.name p.evidence

let finding_to_json f =
  Jsonx.Obj
    [
      ("severity", Jsonx.Str (severity_to_string f.severity));
      ("rule", Jsonx.Str f.rule);
      ("where", Jsonx.Str f.where);
      ("detail", Jsonx.Str f.detail);
    ]

let proof_to_json p =
  Jsonx.Obj
    [
      ("name", Jsonx.Str p.name);
      ("holds", Jsonx.Bool p.holds);
      ("evidence", Jsonx.Str p.evidence);
    ]

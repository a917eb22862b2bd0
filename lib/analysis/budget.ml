module Jsonx = Ctg_obs.Jsonx
module Gate = Ctgauss.Gate

type entry = {
  sigma : string;
  precision : int;
  tail_cut : int;
  gates : int;
  depth : int;
  simple_gates : int;
}

type t = { entries : entry list }

let measure ~sigma ~precision ~tail_cut =
  let enum =
    Ctg_kyao.Leaf_enum.enumerate
      (Ctg_kyao.Matrix.create ~sigma ~precision ~tail_cut)
  in
  let program = Ctgauss.Compile.compile (Ctgauss.Sublist.build enum) in
  let simple = Ctgauss.Compile_simple.compile enum in
  {
    sigma;
    precision;
    tail_cut;
    gates = Gate.gate_count program;
    depth = Gate.depth program;
    simple_gates = Gate.gate_count simple;
  }

let entry_to_json e =
  Jsonx.Obj
    [
      ("sigma", Jsonx.Str e.sigma);
      ("precision", Jsonx.Num (float_of_int e.precision));
      ("tail_cut", Jsonx.Num (float_of_int e.tail_cut));
      ("gates", Jsonx.Num (float_of_int e.gates));
      ("depth", Jsonx.Num (float_of_int e.depth));
      ("simple_gates", Jsonx.Num (float_of_int e.simple_gates));
    ]

let to_json t =
  Jsonx.Obj
    [
      ("benchmark", Jsonx.Str "gates");
      ("entries", Jsonx.List (List.map entry_to_json t.entries));
    ]

let entry_of_json j =
  let field name conv =
    match Option.bind (Jsonx.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let ( let* ) = Result.bind in
  let* sigma = field "sigma" Jsonx.to_str in
  let* precision = field "precision" Jsonx.to_int in
  let* tail_cut = field "tail_cut" Jsonx.to_int in
  let* gates = field "gates" Jsonx.to_int in
  let* depth = field "depth" Jsonx.to_int in
  let* simple_gates = field "simple_gates" Jsonx.to_int in
  Ok { sigma; precision; tail_cut; gates; depth; simple_gates }

let of_json j =
  match Option.bind (Jsonx.member "entries" j) Jsonx.to_list with
  | None -> Error "baseline: missing \"entries\" array"
  | Some items ->
    let rec go acc = function
      | [] -> Ok { entries = List.rev acc }
      | item :: rest -> (
        match entry_of_json item with
        | Ok e -> go (e :: acc) rest
        | Error e -> Error e)
    in
    go [] items

let save path t =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Jsonx.pretty (to_json t)))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> Result.bind (Jsonx.parse contents) of_json

let find t ~sigma ~precision ~tail_cut =
  List.find_opt
    (fun e -> e.sigma = sigma && e.precision = precision && e.tail_cut = tail_cut)
    t.entries

let check ?(slack_pct = 0.0) ~baseline measured =
  let where = Printf.sprintf "sigma=%s n=%d" measured.sigma measured.precision in
  if
    baseline.sigma <> measured.sigma
    || baseline.precision <> measured.precision
    || baseline.tail_cut <> measured.tail_cut
  then
    [
      Report.finding Report.Error ~rule:"gate-budget" ~where
        "baseline entry parameters do not match measurement";
    ]
  else begin
    let limit base = float_of_int base *. (1.0 +. (slack_pct /. 100.0)) in
    let over what measured base =
      if float_of_int measured > limit base then
        Some
          (Report.finding Report.Error ~rule:"gate-budget" ~where
             (Printf.sprintf "%s regression: %d measured vs %d baseline%s" what
                measured base
                (if slack_pct > 0.0 then
                   Printf.sprintf " (+%.1f%% slack)" slack_pct
                 else "")))
      else None
    in
    let improvements =
      if measured.gates < baseline.gates then
        [
          Report.finding Report.Info ~rule:"gate-budget" ~where
            (Printf.sprintf
               "gates improved: %d measured vs %d baseline — refresh \
                BENCH_gates.json to lock it in"
               measured.gates baseline.gates);
        ]
      else []
    in
    List.filter_map Fun.id
      [
        over "gates" measured.gates baseline.gates;
        over "depth" measured.depth baseline.depth;
        over "simple_gates" measured.simple_gates baseline.simple_gates;
      ]
    @ improvements
  end

module Obs = Ctg_obs
module Jsonx = Ctg_obs.Jsonx
module Pool = Ctg_engine.Pool

type t = {
  drift : Drift.t;
  mutable pools : Pool.t list;  (* for CT-monitor and degradation verdicts *)
  mutable checks : (string * (unit -> string option)) list;
      (* custom named probes (e.g. the daemon's GC pause budget) *)
}

let create ?config ?registry ?labels ~matrix () =
  {
    drift = Drift.create ?config ?registry ?labels ~matrix ();
    pools = [];
    checks = [];
  }

let add_check t ~name probe = t.checks <- t.checks @ [ (name, probe) ]

let failing_checks t =
  List.filter_map
    (fun (name, probe) ->
      match (try probe () with _ -> Some "check raised") with
      | Some reason -> Some (name, reason)
      | None -> None)
    t.checks

let drift t = t.drift

let attach_pool t pool =
  t.pools <- pool :: t.pools;
  Pool.add_chunk_observer pool (fun ~chunk:_ ~lane:_ samples ->
      Drift.observe t.drift samples)

type verdict = Healthy | Failing of string list

let verdict t =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let alarms = Drift.alarms t.drift in
  if alarms > 0 then fail "drift: %d window alarm(s)" alarms;
  List.iteri
    (fun i pool ->
      let v = Obs.Ctmon.violations (Pool.ctmon pool) in
      if v > 0 then fail "ct: pool %d has %d violation(s)" i v;
      if Pool.degraded pool then fail "degraded: pool %d serves the CDT fallback" i)
    (List.rev t.pools);
  List.iter (fun (name, reason) -> fail "%s: %s" name reason) (failing_checks t);
  match List.rev !failures with [] -> Healthy | fs -> Failing fs

let healthy t = match verdict t with Healthy -> true | Failing _ -> false

(* Short monitor names for the /healthz body: which monitor is failing,
   without parsing the human-readable failure strings. *)
let failing_monitors t =
  let names = ref [] in
  let add n = if not (List.mem n !names) then names := n :: !names in
  if Drift.alarms t.drift > 0 then add "drift";
  List.iter
    (fun pool ->
      if Obs.Ctmon.violations (Pool.ctmon pool) > 0 then add "ct";
      if Pool.degraded pool then add "degraded")
    t.pools;
  List.iter (fun (name, _) -> add name) (failing_checks t);
  List.rev !names

let healthz_json t =
  let v = verdict t in
  let pools_json =
    Jsonx.List
      (List.rev_map
         (fun pool ->
           Jsonx.Obj
             [
               ("ct_violations",
                Num (float_of_int (Obs.Ctmon.violations (Pool.ctmon pool))));
               ("fallback_batches",
                Num (float_of_int (Obs.Ctmon.fallback_batches (Pool.ctmon pool))));
               ("degraded", Bool (Pool.degraded pool));
             ])
         t.pools)
  in
  Jsonx.Obj
    [
      ("status", Str (match v with Healthy -> "ok" | Failing _ -> "failing"));
      ( "failures",
        List (match v with Healthy -> [] | Failing fs -> List.map (fun f -> Jsonx.Str f) fs) );
      ( "failing_monitors",
        List (List.map (fun n -> Jsonx.Str n) (failing_monitors t)) );
      ( "first_alarm_window",
        match Drift.first_alarm t.drift with
        | None -> Jsonx.Null
        | Some r -> Drift.result_json r );
      ( "drift",
        Obj
          [
            ("samples", Num (float_of_int (Drift.samples t.drift)));
            ("windows", Num (float_of_int (Drift.windows t.drift)));
            ("alarms", Num (float_of_int (Drift.alarms t.drift)));
            ( "last",
              match Drift.last t.drift with
              | None -> Jsonx.Null
              | Some r -> Drift.result_json r );
          ] );
      ("pools", pools_json);
    ]

let drift_json t =
  Jsonx.Obj
    [
      ("samples", Num (float_of_int (Drift.samples t.drift)));
      ("windows", Num (float_of_int (Drift.windows t.drift)));
      ("alarms", Num (float_of_int (Drift.alarms t.drift)));
      ("results", List (List.map Drift.result_json (Drift.results t.drift)));
    ]

let routes t ~registry =
  [
    ( "/metrics",
      fun () ->
        Ctg_net.Http.response
          ~content_type:"text/plain; version=0.0.4; charset=utf-8"
          (Obs.Registry.expose_text registry) );
    ( "/healthz",
      fun () ->
        Ctg_net.Http.response
          ~status:(if healthy t then 200 else 503)
          ~content_type:"application/json"
          (Jsonx.pretty (healthz_json t) ^ "\n") );
    ( "/drift.json",
      fun () ->
        Ctg_net.Http.response ~content_type:"application/json"
          (Jsonx.pretty (drift_json t) ^ "\n") );
  ]

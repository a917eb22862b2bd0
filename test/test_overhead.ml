(* Tests for the overhead-gate harness: the shared retry rule driven by
   scripted estimates, the serve row's load driver, and, per gate, a
   tiny real run whose report flattens to exactly the Trend keys of the
   committed baseline (so [bench history] keeps comparing across harness
   changes). *)

module H = Ctg_overhead.Harness
module Rows = Ctg_overhead.Rows
module Jsonx = Ctg_obs.Jsonx
module Trend = Ctg_assure.Trend

(* ---- The retry rule ---- *)

(* Estimate k (1-based) has overhead [pcts.(k-1)] over a 100 ns baseline;
   checks the kept overhead and how many estimates were taken. *)
let check_run name ~threshold_pct ~attempts pcts ~kept ~taken =
  let n = ref 0 in
  let t =
    H.converge ~threshold_pct ~attempts (fun k ->
        incr n;
        Alcotest.(check int) "estimates are taken in order" !n k;
        [| 100.0; 100.0 +. pcts.(k - 1) |])
  in
  Alcotest.(check (float 1e-9)) (name ^ ": kept overhead") kept (t.(1) -. t.(0));
  Alcotest.(check int) (name ^ ": estimates taken") taken !n

let test_retry_rule () =
  (* Stops at the first estimate below 0.75 × threshold (1.5 of 2). *)
  check_run "inside at once" ~threshold_pct:2.0 ~attempts:4 [| 1.49 |]
    ~kept:1.49 ~taken:1;
  check_run "stops once inside" ~threshold_pct:2.0 ~attempts:4
    [| 5.0; 2.5; 1.0; 0.1 |] ~kept:1.0 ~taken:3;
  (* 0.75 × threshold itself is not inside: the comparison is strict. *)
  check_run "boundary retries" ~threshold_pct:2.0 ~attempts:4
    [| 1.5; 1.4 |] ~kept:1.4 ~taken:2;
  (* Keeps the lowest estimate, not the last one, and stops at the cap. *)
  check_run "keeps the minimum" ~threshold_pct:2.0 ~attempts:4
    [| 5.0; 3.0; 4.0; 6.0; 0.0 |] ~kept:3.0 ~taken:4;
  check_run "assure cap" ~threshold_pct:3.0 ~attempts:6
    [| 9.0; 8.0; 7.0; 6.0; 5.0; 4.0; 0.0 |] ~kept:4.0 ~taken:6

(* ---- The pass rule ---- *)

(* Synthetic cases on the saga row: a spin-loop baseline, the arms
   given, and a tail that reports [pass].  Only the gated overhead
   against the threshold and the row's [pass] check may fail an entry. *)
let spin ~lane:_ =
  let x = ref 0 in
  for i = 1 to 1_000_000 do
    x := Sys.opaque_identity (!x + i)
  done

let spins k ~lane = for _ = 1 to k do spin ~lane done

let spin_arm ?(increment = false) name run =
  { H.ns = name ^ "_ns"; pct = name ^ "_pct"; traced = false; increment; run }

let spin_case ?(pass = true) arms () =
  {
    H.head = [];
    ops = 1;
    base = ("base_ns", spin);
    arms;
    tail = (fun () -> [ ("pass", Jsonx.Bool pass) ]);
  }

let measure_spin cases =
  H.measure
    { Rows.saga with
      H.threshold_pct = 50.0; attempts = 1; cases = (fun _ -> cases) }
    { H.set = []; samples = 1; rounds = 1; min_time = 0.01; smoke = true }

(* The clean cases gate an increment arm that adds nothing: it reads ~0%
   however loaded the host is, where two equal whole-pass spins can read
   over the threshold when a neighbour takes the CPU mid-group. *)
let test_pass_rule () =
  let nothing = spin_arm ~increment:true "gated" (fun ~lane:_ -> ()) in
  match
    measure_spin
      [
        spin_case [ nothing ];
        spin_case ~pass:false [ nothing ];
        spin_case [ spin_arm "gated" (spins 4) ];
      ]
  with
  | None -> Alcotest.fail "row unavailable"
  | Some report ->
    Alcotest.(check (list bool))
      "clean / pass false / gated arm 300% over" [ true; false; false ]
      (List.map (fun (e : H.entry) -> e.ok) report.entries);
    Alcotest.(check bool) "report fails" false (H.ok report)

(* An increment arm times only what it adds to the baseline pass: doing
   nothing it reads 0% (a whole-pass arm doing nothing reads −100%), one
   more spin about +100%, and its ns is the baseline's plus its own. *)
let test_increment () =
  let inc = spin_arm ~increment:true in
  let case = spin_case [ inc "none" (fun ~lane:_ -> ()); inc "spin" spin ] in
  match measure_spin [ case ] with
  | Some { entries = [ e ]; _ } ->
    let v k =
      match List.assoc_opt k e.fields with Some (Jsonx.Num v) -> v | _ -> nan
    in
    let within k lo hi = Alcotest.(check bool) k true (v k >= lo && v k < hi) in
    within "none_pct" 0.0 1.0;
    within "spin_pct" 30.0 300.0;
    Alcotest.(check bool) "ns over the baseline" true (v "spin_ns" > v "base_ns")
  | _ -> Alcotest.fail "one entry expected"

(* A raising pass still runs the tail, which restores what the setup
   changed (the serve row stops its daemon there). *)
let test_raise_runs_tail () =
  let tail_ran = ref false in
  let case () =
    {
      (spin_case [ spin_arm "gated" (fun ~lane:_ -> failwith "pass") ] ()) with
      H.tail =
        (fun () ->
          tail_ran := true;
          []);
    }
  in
  match measure_spin [ case ] with
  | _ -> Alcotest.fail "the raising pass was swallowed"
  | exception Failure _ -> Alcotest.(check bool) "tail ran" true !tail_ran

(* ---- The serve row's load driver ---- *)

(* A 400 fails its tenant's worker, but the pass raises only once every
   worker is joined: the valid tenant, listed second, has had all its
   requests answered by then.  The daemon then stops under
   [Fun.protect] and serves nothing more. *)
let test_load_failure_rule () =
  let module Daemon = Ctg_serve.Daemon in
  let d =
    Daemon.create
      {
        Daemon.default_config with
        n = 16;
        port = 0;
        http_workers = 2;
        sign_domains = Some 1;
      }
  in
  let per_tenant = 4 in
  (match
     Fun.protect
       ~finally:(fun () -> Daemon.stop d)
       (fun () ->
         Rows.load d ~tenants:[| "../etc"; "load-ok" |] ~per_tenant ~lane:0)
   with
  | _ -> Alcotest.fail "a 400 must fail the pass"
  | exception Failure m ->
    Alcotest.(check bool) ("the 400 is raised: " ^ m) true
      (String.starts_with ~prefix:"sign -> 400" m));
  Alcotest.(check int) "the valid tenant was served in full" per_tenant
    (Daemon.requests d);
  match Ctg_net.Client.connect ~port:(Daemon.port d) () with
  | exception Unix.Unix_error _ -> ()
  | c -> (
    match Ctg_net.Client.request c ~meth:"GET" ~path:"/healthz" () with
    | exception _ -> Ctg_net.Client.close c
    | r -> Alcotest.failf "served after stop: %d" r.Ctg_net.Client.status)

(* ---- The trajectory keys survive ---- *)

(* 63 × 16 samples: the saga row's battery judges at least 1000. *)
let tiny =
  {
    H.set = Ctgauss.Sampler.paper_keys;
    samples = 63 * 16;
    rounds = 1;
    min_time = 0.01;
    smoke = true;
  }

let keys ~dir file =
  List.sort compare
    (List.map fst (Trend.collect ~files:[ file ] ~dir ()).Trend.metrics)

let num fields k =
  match List.assoc_opt k fields with
  | Some (Jsonx.Num v) -> v
  | _ -> Alcotest.failf "entry field %s missing or not a number" k

let test_keys (row : H.row) () =
  match H.measure row tiny with
  | None -> Alcotest.skip ()
  | Some report ->
    let dir = Filename.temp_dir "ctg_overhead" "" in
    let file = H.file ~smoke:false row in
    let path = Filename.concat dir file in
    H.save path report;
    (match Jsonx.parse (In_channel.with_open_text path In_channel.input_all) with
    | Ok _ -> ()
    | Error err -> Alcotest.failf "%s does not parse: %s" file err);
    let committed = keys ~dir:".." file in
    Alcotest.(check bool) "committed baseline has keys" true (committed <> []);
    Alcotest.(check (list string)) "Trend keys" committed (keys ~dir file);
    Sys.remove path;
    Sys.rmdir dir;
    (* An arm's timing field: [<arm>_ns] or [<arm>_ns_per_sample]; the
       pause quantiles share the suffix but are not timings. *)
    let timing k =
      (String.ends_with ~suffix:"_ns" k
      || String.ends_with ~suffix:"_ns_per_sample" k)
      && not (String.starts_with ~prefix:"pause" k)
    in
    List.iter
      (fun (e : H.entry) ->
        List.iter
          (fun (k, _) ->
            if timing k && not (num e.fields k > 0.0) then
              Alcotest.failf "%s is not positive" k)
          e.fields;
        if row.name = "obs" then begin
          Alcotest.(check (float 0.0)) "bitsliced sampler is CT" 0.0
            (num e.fields "ct_violations");
          Alcotest.(check bool) "entropy measured" true
            (num e.fields "entropy_bits_per_sample" > 0.0)
        end)
      report.entries

let () =
  Alcotest.run "overhead"
    [
      ( "retry",
        [
          Alcotest.test_case "shared retry rule" `Quick test_retry_rule;
          Alcotest.test_case "tail check and threshold fail an entry" `Quick
            test_pass_rule;
          Alcotest.test_case "an increment arm adds its run to the baseline"
            `Quick test_increment;
          Alcotest.test_case "a raising pass runs the tail" `Quick
            test_raise_runs_tail;
        ] );
      ( "serve",
        [
          Alcotest.test_case "load raises a 400 after joining every worker"
            `Quick test_load_failure_rule;
        ] );
      ( "trajectory",
        List.map
          (fun (row : H.row) ->
            Alcotest.test_case (row.name ^ " keeps its Trend keys") `Quick
              (test_keys row))
          Rows.all );
    ]

(* Tests for the overhead-gate harness: the shared retry rule driven by
   scripted estimates, and, per gate, a tiny real run whose report
   flattens to exactly the Trend keys of the committed baseline (so
   [bench history] keeps comparing across harness changes). *)

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

(* ---- The trajectory keys survive ---- *)

let tiny =
  {
    H.set = Ctgauss.Sampler.paper_keys;
    samples = 63 * 10;
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
      ("retry", [ Alcotest.test_case "shared retry rule" `Quick test_retry_rule ]);
      ( "trajectory",
        List.map
          (fun (row : H.row) ->
            Alcotest.test_case (row.name ^ " keeps its Trend keys") `Quick
              (test_keys row))
          Rows.all );
    ]

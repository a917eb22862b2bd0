(* The repository benchmark.  One workload per process:

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]

   prints human-readable progress and, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones.
   See NOTES.md for what each workload loads and why. *)

open Common

let workloads =
  [ ("fill-s2", Fill.run); ("fill-s215", Fill.run); ("sign-512", Sign.run); ("serve-512", Serve.run) ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (fill-s2|fill-s215|sign-512|serve-512) \
     --seed N --seconds S --trace 0|1 [--out DIR]";
  exit 2

let parse argv =
  let rec go acc = function
    | "--workload" :: v :: rest -> go { acc with workload = v } rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s -> go { acc with seed = s } rest
      | None -> usage ())
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 -> go { acc with seconds = s } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { acc with trace = v = "1" } rest
    | "--out" :: v :: rest -> go { acc with out_dir = v } rest
    | [] -> acc
    | _ -> usage ()
  in
  go
    { workload = ""; seed = 0; seconds = 10.0; trace = false; out_dir = "." }
    (List.tl (Array.to_list argv))

let () =
  let args = parse Sys.argv in
  match List.assoc_opt args.workload workloads with
  | None -> usage ()
  | Some run ->
    info "workload %s, seed %d, %.0f s, trace %b" args.workload args.seed
      args.seconds args.trace;
    print_result (run args)

(* ctg_serve: the multi-tenant Falcon signing daemon.

     ctg_serve run [--port 8732] [--trace] ...  # serve until SIGINT/SIGTERM
     ctg_serve client --tenant alice -m "msg"   # sign over HTTP and verify
     ctg_serve client --trace req.json          # + merged causal trace

   [run] drains gracefully on SIGINT/SIGTERM: the listener closes,
   in-flight batches complete, the drift window flushes, then the final
   counters are printed. *)

open Cmdliner
module Obs = Ctg_obs
module Jsonx = Obs.Jsonx
module F = Ctg_falcon
module Serve = Ctg_serve
module Client = Ctg_net.Client

(* ------------------------------------------------------------------ *)
(* Config plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let config_of ~n ~sigma ~port ~host ~queue ~batch ~domains ~workers
    ~no_check ~trace ~rtev ~pause_budget_ms =
  {
    Serve.Daemon.default_config with
    n;
    sigma;
    port;
    host;
    queue_capacity = queue;
    max_batch = batch;
    sign_domains = domains;
    http_workers = workers;
    check = not no_check;
    trace;
    rtev = rtev || pause_budget_ms > 0.0;
    pause_budget_ms;
  }

let common_args =
  let n =
    Arg.(value & opt int 64
         & info [ "n" ] ~docv:"N"
             ~doc:"Ring degree (power of two; 256/512/1024 = Falcon levels).")
  in
  let sigma =
    Arg.(value & opt string "2" & info [ "sigma" ] ~docv:"S"
         ~doc:"Base sampler sigma.")
  in
  n, sigma

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run n sigma host port queue batch domains workers no_check trace rtev
    pause_budget_ms =
  let config =
    config_of ~n ~sigma ~port ~host ~queue ~batch ~domains ~workers
      ~no_check ~trace ~rtev ~pause_budget_ms
  in
  Format.printf "compiling sigma=%s sampler and starting daemon...@." sigma;
  let d = Serve.Daemon.create config in
  Format.printf "ctg_serve listening on %s:%d (n=%d, queue=%d, batch<=%d)@."
    host (Serve.Daemon.port d) n queue batch;
  Format.printf "  POST /v1/sign?tenant=T   GET /v1/pubkey?tenant=T@.";
  Format.printf "  GET /metrics /healthz /drift.json /v1/tenants@.";
  if trace then
    Format.printf "  GET /v1/trace[?request_id=R]  (tracing enabled)@.";
  if config.rtev then
    Format.printf
      "  runtime telemetry: %s (gc_pause_ns, serve_gc_pause_ns%s)@."
      (if Serve.Daemon.rtev_active d then "on" else "UNAVAILABLE")
      (if pause_budget_ms > 0.0 then
         Printf.sprintf ", %gms pause budget" pause_budget_ms
       else "");
  let stop_flag = Atomic.make false in
  let request_stop _ = Atomic.set stop_flag true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  while not (Atomic.get stop_flag) do
    (* sleepf returns early (EINTR) when a signal lands. *)
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Format.printf "@.draining...@.";
  let was_rtev = Serve.Daemon.rtev_active d in
  Serve.Daemon.stop d;
  Format.printf
    "served %d requests in %d batches (%d shed), healthy=%b@."
    (Serve.Daemon.requests d) (Serve.Daemon.batches d)
    (Serve.Daemon.batcher_shed d) (Serve.Daemon.healthy d);
  if was_rtev then
    Format.printf "gc pauses: %d (%d minor), total %.3fms, max %.3fms@."
      (Ctg_rtev.Rtev.pause_count ())
      (Ctg_rtev.Rtev.minor_pause_count ())
      (float_of_int (Ctg_rtev.Rtev.total_pause_ns ()) /. 1e6)
      (float_of_int (Ctg_rtev.Rtev.max_pause_ns ()) /. 1e6)

let run_cmd =
  let n, sigma = common_args in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Bind address.")
  in
  let port =
    Arg.(value & opt int 8732 & info [ "port"; "p" ] ~docv:"PORT"
         ~doc:"Listen port (0 = ephemeral).")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
         ~doc:"Sign queue capacity; excess load is shed with 429.")
  in
  let batch =
    Arg.(value & opt int 16 & info [ "max-batch" ] ~docv:"N"
         ~doc:"Max sign requests coalesced into one batch.")
  in
  let domains =
    Arg.(value & opt (some int) None & info [ "domains"; "d" ] ~docv:"P"
         ~doc:"Signing worker domains (default: recommended count).")
  in
  let workers =
    Arg.(value & opt int 8 & info [ "http-workers" ] ~docv:"P"
         ~doc:"HTTP worker domains.")
  in
  let no_check =
    Arg.(value & flag
         & info [ "no-check" ] ~doc:"Skip verify-after-sign in the batch run.")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Enable span tracing and serve GET /v1/trace (per-request \
                   Chrome trace slices).")
  in
  let rtev =
    Arg.(value & flag
         & info [ "rtev" ]
             ~doc:"Consume the OCaml Runtime_events ring: real per-domain GC \
                   pause histograms (gc_pause_ns), a pause-charged batch \
                   split (serve_gc_pause_ns), and — with $(b,--trace) — GC \
                   pause spans merged into /v1/trace slices.")
  in
  let pause_budget_ms =
    Arg.(value & opt float 0.0
         & info [ "pause-budget-ms" ] ~docv:"MS"
             ~doc:"Fail /healthz (gc_pause_budget monitor) if any single GC \
                   pause exceeds this many milliseconds.  Implies \
                   $(b,--rtev); 0 disables.")
  in
  let doc = "serve Falcon signatures over HTTP until SIGINT/SIGTERM" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ n $ sigma $ host $ port $ queue $ batch $ domains
          $ workers $ no_check $ trace $ rtev $ pause_budget_ms)

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

let fail fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

let member_exn name j =
  match Jsonx.member name j with
  | Some v -> v
  | None -> fail "response is missing %S" name

let str_exn name j =
  match Jsonx.to_str (member_exn name j) with
  | Some s -> s
  | None -> fail "response field %S is not a string" name

let int_exn name j =
  match Jsonx.to_int (member_exn name j) with
  | Some i -> i
  | None -> fail "response field %S is not an int" name

let parse_json body =
  match Jsonx.parse body with
  | Ok j -> j
  | Error e -> fail "bad JSON in response: %s" e

(* Fetch a tenant's public key and return (params, h, bound_sq). *)
let fetch_pubkey c ~tenant =
  let r =
    Client.request c ~meth:"GET" ~path:("/v1/pubkey?tenant=" ^ tenant) ()
  in
  if r.Client.status <> 200 then
    fail "GET /v1/pubkey -> %d: %s" r.Client.status (String.trim r.Client.body);
  let j = parse_json r.Client.body in
  let n = int_exn "n" j in
  let params = Serve.Daemon.params_of_n n in
  let pk = Ctg_util.Hex.decode (str_exn "pk" j) in
  match F.Codec.decode_public_key ~n pk with
  | Some h -> (params, h, F.Sign.norm_bound_sq params)
  | None -> fail "could not decode public key for %s" tenant

let sign_once ?(headers = []) c ~tenant ~msg =
  let r =
    Client.request c ~headers ~meth:"POST" ~path:("/v1/sign?tenant=" ^ tenant)
      ~body:(Bytes.to_string msg) ()
  in
  if r.Client.status <> 200 then
    fail "POST /v1/sign -> %d: %s" r.Client.status (String.trim r.Client.body);
  (parse_json r.Client.body, r.Client.headers)

let verify_response ~params ~h ~bound_sq ~msg j =
  let sig_bytes = Ctg_util.Hex.decode (str_exn "sig" j) in
  match F.Codec.decode_signature ~params sig_bytes with
  | None -> fail "undecodable signature in response"
  | Some (salt, s2) ->
    if not (F.Verify.verify ~params ~h ~bound_sq ~msg ~salt ~s2) then
      fail "signature did NOT verify";
    Bytes.length sig_bytes

(* Merge the daemon's per-request trace slice with the client's own span:
   daemon events keep pid 1, client events are re-homed to pid 2, so the
   viewer shows both processes of the one causal request. *)
let merged_trace ~daemon_json rid =
  let patch_pid = function
    | Jsonx.Obj fields ->
      Jsonx.Obj
        (List.map
           (fun (k, v) -> if k = "pid" then (k, Jsonx.Num 2.0) else (k, v))
           fields)
    | j -> j
  in
  let events_of = function
    | Jsonx.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Jsonx.List l) -> l
      | _ -> [])
    | _ -> []
  in
  let client_events = List.map patch_pid (events_of (Obs.Trace.export ())) in
  let daemon_events = events_of daemon_json in
  if daemon_events = [] then fail "daemon trace slice has no traceEvents";
  Jsonx.Obj
    [
      ("traceEvents", Jsonx.List (daemon_events @ client_events));
      ("displayTimeUnit", Jsonx.Str "ms");
      ("ctg_request_id", Jsonx.Str rid);
    ]

let client host port tenant message trace_out =
  (match trace_out with Some _ -> Obs.Trace.enable () | None -> ());
  (* Retrying connect rides out a daemon still booting; the policy's
     deadline doubles as the connection's socket timeout, so a wedged
     daemon turns into an error instead of a hang. *)
  let c = Client.connect_retry ~host ~port () in
  let params, h, bound_sq = fetch_pubkey c ~tenant in
  let msg = Bytes.of_string message in
  let rid = Ctg_net.Http.gen_request_id () in
  let headers =
    match trace_out with Some _ -> [ ("X-Request-Id", rid) ] | None -> []
  in
  let j, resp_headers =
    Obs.Trace.with_span "client_request" ~cat:"client"
      ~args:(fun () -> [ ("request_id", rid); ("tenant", tenant) ])
      (fun () -> sign_once ~headers c ~tenant ~msg)
  in
  let bytes = verify_response ~params ~h ~bound_sq ~msg j in
  (match trace_out with
  | None -> ()
  | Some path ->
    (match List.assoc_opt "x-request-id" resp_headers with
    | Some echoed when echoed = rid -> ()
    | Some echoed -> fail "daemon echoed request id %S, expected %S" echoed rid
    | None -> fail "daemon response carried no X-Request-Id");
    let r =
      Client.request c ~meth:"GET" ~path:("/v1/trace?request_id=" ^ rid) ()
    in
    if r.Client.status <> 200 then
      fail "GET /v1/trace -> %d (daemon not running with --trace?): %s"
        r.Client.status (String.trim r.Client.body);
    let daemon_json = parse_json r.Client.body in
    Obs.Trace.disable ();
    let merged = merged_trace ~daemon_json rid in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Jsonx.to_string merged);
        output_char oc '\n');
    Format.printf "wrote %s (daemon slice + client span, request_id=%s)@."
      path rid);
  Client.close c;
  Format.printf
    "tenant=%s verified OK: %d signature bytes, %d attempt(s), batch=%d@."
    tenant bytes (int_exn "attempts" j) (int_exn "batch" j)

let client_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Daemon address.")
  in
  let port =
    Arg.(value & opt int 8732 & info [ "port"; "p" ] ~docv:"PORT"
         ~doc:"Daemon port.")
  in
  let tenant =
    Arg.(value & opt string "demo" & info [ "tenant"; "t" ] ~docv:"NAME"
         ~doc:"Tenant to sign as.")
  in
  let message =
    Arg.(value & opt string "hello, falcon" & info [ "message"; "m" ]
         ~docv:"MSG" ~doc:"Message to sign.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Pre-assign an X-Request-Id, fetch the daemon's trace slice \
               for it (the daemon must run with $(b,--trace)) and write the \
               merged client+daemon Chrome trace here.")
  in
  let doc = "sign one message over HTTP and verify the result locally" in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const client $ host $ port $ tenant $ message $ trace_out)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "multi-tenant Falcon signing daemon with request batching" in
  let info = Cmd.info "ctg_serve" ~version:"1.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; client_cmd ]))

(* The serving stack: shared HTTP server/client, tenant keyring,
   batching queue, and the daemon end to end over live sockets. *)

module Http = Ctg_net.Http
module Client = Ctg_net.Client
module Serve = Ctg_serve
module Obs = Ctg_obs
module Histo = Obs.Histo
module Registry = Obs.Registry
module Promtext = Obs.Promtext
module Jsonx = Obs.Jsonx
module F = Ctg_falcon
module Sig = Ctg_samplers.Sampler_sig

(* ------------------------------------------------------------------ *)
(* net: server + client                                                *)
(* ------------------------------------------------------------------ *)

let echo_handler (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | "POST", "/echo" -> Http.response req.Http.body
  | "GET", "/greet" ->
    let who =
      match Http.query_param req "who" with Some w -> w | None -> "nobody"
    in
    Http.response ("hello " ^ who)
  | "GET", _ -> Http.response ~status:404 "not found\n"
  | _ -> Http.response ~status:405 "method not allowed\n"

let test_keepalive_and_bodies () =
  let srv = Http.start_handler ~port:0 ~workers:2 echo_handler in
  let port = Http.port srv in
  let c = Client.connect ~port () in
  (* Several requests over ONE connection: keep-alive must hold. *)
  let r1 = Client.request c ~meth:"GET" ~path:"/greet?who=a%20b" () in
  Alcotest.(check int) "greet 200" 200 r1.Client.status;
  Alcotest.(check string) "query percent-decoded" "hello a b" r1.Client.body;
  let big = String.init 50_000 (fun i -> Char.chr (32 + (i mod 90))) in
  let r2 = Client.request c ~meth:"POST" ~path:"/echo" ~body:big () in
  Alcotest.(check int) "echo 200" 200 r2.Client.status;
  Alcotest.(check bool) "50k body round-trips intact" true (r2.Client.body = big);
  let r3 = Client.request c ~meth:"GET" ~path:"/missing" () in
  Alcotest.(check int) "404 after big POST on same conn" 404 r3.Client.status;
  let r4 = Client.request c ~meth:"PUT" ~path:"/echo" ~body:"x" () in
  Alcotest.(check int) "405 for unknown method" 405 r4.Client.status;
  Client.close c;
  Http.stop srv

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* A raw socket lets us exercise the chunked decoder, which the client
   never emits. *)
let raw_roundtrip ~port payload =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let b = Bytes.of_string payload in
  let n = Unix.write fd b 0 (Bytes.length b) in
  assert (n = Bytes.length b);
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes buf chunk 0 k;
      drain ()
  in
  drain ();
  Unix.close fd;
  Buffer.contents buf

let test_chunked_body () =
  let srv = Http.start_handler ~port:0 ~workers:1 echo_handler in
  let port = Http.port srv in
  let raw =
    "POST /echo HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
    ^ "5\r\nhello\r\n8;ext=1\r\n, chunks\r\n0\r\nTrailer: x\r\n\r\n"
  in
  let reply = raw_roundtrip ~port raw in
  Alcotest.(check bool) "chunked POST got 200" true
    (String.length reply > 12 && String.sub reply 9 3 = "200");
  Alcotest.(check bool) "chunks reassembled in order" true
    (contains reply "hello, chunks");
  Http.stop srv

(* A POST whose head declares a body one byte over the server's fixed
   1 MiB limit, and sends none: the server refuses on the declared
   length alone.  Returns the status and the raw reply. *)
let oversized_post ~port ~headers =
  let head =
    Printf.sprintf
      "POST /echo HTTP/1.1\r\nHost: t\r\n%sContent-Length: %d\r\n\r\n"
      (String.concat "" (List.map (fun (k, v) -> k ^ ": " ^ v ^ "\r\n") headers))
      ((1024 * 1024) + 1)
  in
  let reply = raw_roundtrip ~port head in
  (int_of_string (String.sub reply 9 3), reply)

let test_oversized_body_rejected () =
  let srv = Http.start_handler ~port:0 ~workers:1 echo_handler in
  let port = Http.port srv in
  let status, _ = oversized_post ~port ~headers:[] in
  Alcotest.(check int) "413 over max_body" 413 status;
  Http.stop srv

(* The same refusal with the body actually sent, by the client: the
   server must let the client finish writing and read the 413 rather
   than reset the connection under it. *)
let test_oversized_body_one_shot () =
  let srv = Http.start_handler ~port:0 ~workers:1 echo_handler in
  let port = Http.port srv in
  let body = String.make ((1024 * 1024) + 1) 'x' in
  for i = 1 to 20 do
    let rid = Printf.sprintf "big-body-%d" i in
    let r =
      Client.one_shot ~port ~meth:"POST" ~path:"/echo"
        ~headers:[ ("X-Request-Id", rid) ]
        ~body ()
    in
    Alcotest.(check int) "413 over max_body" 413 r.Client.status;
    Alcotest.(check (option string)) "request id echoed" (Some rid)
      (List.assoc_opt "x-request-id" r.Client.headers)
  done;
  Http.stop srv

let test_stop_is_clean () =
  let srv = Http.start_handler ~port:0 ~workers:2 echo_handler in
  let port = Http.port srv in
  let r = Client.one_shot ~port ~meth:"GET" ~path:"/greet" () in
  Alcotest.(check int) "served before stop" 200 r.Client.status;
  Http.stop srv;
  (match Client.connect ~port () with
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET), _, _) ->
    ()
  | c ->
    (* A connect that sneaks in must at least not be served. *)
    (match Client.request c ~meth:"GET" ~path:"/greet" () with
    | exception _ -> ()
    | r -> Alcotest.failf "served after stop: %d" r.Client.status));
  Http.stop srv (* idempotent *)

(* ------------------------------------------------------------------ *)
(* keyring                                                             *)
(* ------------------------------------------------------------------ *)

let test_keyring_single_flight () =
  let registry = Registry.create () in
  let kr =
    Serve.Keyring.create ~registry ~params:(F.Params.custom ~n:8) ()
  in
  let racers =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () -> Serve.Keyring.lookup kr ~tenant:"alice"))
  in
  let kps = Array.map Domain.join racers in
  Array.iter
    (fun kp ->
      Alcotest.(check bool) "all racers share one keypair" true (kp == kps.(0)))
    kps;
  Alcotest.(check int) "exactly one keygen" 1 (Serve.Keyring.keygens kr);
  ignore (Serve.Keyring.lookup kr ~tenant:"bob" : F.Keygen.keypair);
  Alcotest.(check (list string)) "tenants sorted" [ "alice"; "bob" ]
    (Serve.Keyring.tenants kr);
  Alcotest.(check bool) "mem" true (Serve.Keyring.mem kr ~tenant:"alice");
  Alcotest.check_raises "invalid tenant rejected"
    (Invalid_argument "Keyring.lookup: invalid tenant \"no/slash\"") (fun () ->
      ignore (Serve.Keyring.lookup kr ~tenant:"no/slash"))

let test_keyring_deterministic () =
  let params = F.Params.custom ~n:8 in
  let kr1 = Serve.Keyring.create ~registry:(Registry.create ()) ~params () in
  let kr2 = Serve.Keyring.create ~registry:(Registry.create ()) ~params () in
  let k1 = Serve.Keyring.lookup kr1 ~tenant:"t" in
  let k2 = Serve.Keyring.lookup kr2 ~tenant:"t" in
  Alcotest.(check bool) "same tenant, same derived key" true
    (k1.F.Keygen.h = k2.F.Keygen.h)

(* ------------------------------------------------------------------ *)
(* batcher                                                             *)
(* ------------------------------------------------------------------ *)

let test_batcher_backpressure_and_shed () =
  let gate_mu = Mutex.create () in
  let gate_cond = Condition.create () in
  let go = ref false in
  let run reqs =
    Mutex.lock gate_mu;
    while not !go do
      Condition.wait gate_cond gate_mu
    done;
    Mutex.unlock gate_mu;
    Array.map (fun x -> x * 2) reqs
  in
  let b = Serve.Batcher.create ~capacity:2 ~max_batch:1 ~run () in
  (* First submit; wait until the runner has it in flight (popped). *)
  let first = Domain.spawn (fun () -> Serve.Batcher.submit b 100) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (Serve.Batcher.queue_depth b > 0 || Serve.Batcher.submitted b < 1)
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.002
  done;
  (* Runner is blocked in [run]; capacity 2 means exactly two of the next
     five enqueue and three are shed — regardless of arrival order. *)
  let late =
    Array.init 5 (fun i -> Domain.spawn (fun () -> Serve.Batcher.submit b i))
  in
  while Serve.Batcher.shed_count b < 3 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Alcotest.(check int) "bounded queue" 2 (Serve.Batcher.queue_depth b);
  Mutex.lock gate_mu;
  go := true;
  Condition.broadcast gate_cond;
  Mutex.unlock gate_mu;
  let outcomes = Array.map Domain.join late in
  (match Domain.join first with
  | Serve.Batcher.Done v -> Alcotest.(check int) "first served" 200 v
  | _ -> Alcotest.fail "first submit must be served");
  let served, shed =
    Array.fold_left
      (fun (d, s) -> function
        | Serve.Batcher.Done _ -> (d + 1, s)
        | Serve.Batcher.Shed -> (d, s + 1)
        | Serve.Batcher.Failed e -> raise e)
      (0, 0) outcomes
  in
  Alcotest.(check int) "two late submits served" 2 served;
  Alcotest.(check int) "three shed" 3 shed;
  Alcotest.(check int) "shed counted" 3 (Serve.Batcher.shed_count b);
  Serve.Batcher.shutdown b;
  Alcotest.(check bool) "submit after shutdown sheds" true
    (Serve.Batcher.submit b 9 = Serve.Batcher.Shed);
  Alcotest.(check int) "post-stop shed not counted" 3
    (Serve.Batcher.shed_count b)

(* Group commit, without a timer: request 0 forms the first batch alone,
   and its [run] does not return until [k] more requests are queued.  The
   runner is then free with all [k] waiting, so it must cut them into
   batches of [max_batch] at once.  Returns the batcher and each
   submitter's outcome, in request order. *)
let coalesce_behind_first ~registry ~k ~max_batch run_batch =
  let self = ref None in
  let first = Atomic.make true in
  let run reqs =
    (if Atomic.exchange first false then
       let b = Option.get !self in
       let deadline = Unix.gettimeofday () +. 5.0 in
       while
         Serve.Batcher.queue_depth b < k && Unix.gettimeofday () < deadline
       do
         Unix.sleepf 0.0005
       done);
    run_batch reqs
  in
  let b = Serve.Batcher.create ~registry ~capacity:64 ~max_batch ~run () in
  self := Some b;
  let first_d = Domain.spawn (fun () -> Serve.Batcher.submit b 0) in
  (* Wait until the runner has popped request 0, so it is alone. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (Serve.Batcher.queue_depth b > 0 || Serve.Batcher.submitted b < 1)
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.0005
  done;
  let rest =
    Array.init k (fun i ->
        Domain.spawn (fun () -> Serve.Batcher.submit b (i + 1)))
  in
  let first_outcome = Domain.join first_d in
  (b, Array.append [| first_outcome |] (Array.map Domain.join rest))

(* After [coalesce_behind_first] and a shutdown (which joins the runner,
   so the histogram is final): batch sizes 1, then [k] cut into full
   batches of [max_batch] and a remainder. *)
let check_batch_sizes registry b ~k ~max_batch =
  let sizes =
    (1 :: List.init (k / max_batch) (fun _ -> max_batch))
    @ if k mod max_batch = 0 then [] else [ k mod max_batch ]
  in
  let sizes_h =
    Registry.histo_summary (Registry.histo registry "serve_batch_size")
  in
  Alcotest.(check int) "batches cut" (List.length sizes)
    (Serve.Batcher.batches b);
  Alcotest.(check int) "batch-size observations" (List.length sizes)
    sizes_h.Histo.count;
  Alcotest.(check int) "requests batched" (k + 1) sizes_h.Histo.sum;
  Alcotest.(check int) "first batch alone" 1 sizes_h.Histo.min;
  Alcotest.(check int) "next batch takes min k max_batch" (min k max_batch)
    sizes_h.Histo.max

let test_batcher_results_match_requests () =
  let registry = Registry.create () in
  let k = 19 and max_batch = 8 in
  let b, outcomes =
    coalesce_behind_first ~registry ~k ~max_batch (Array.map (fun x -> x * x))
  in
  Serve.Batcher.shutdown b;
  Array.iteri
    (fun i o ->
      match o with
      | Serve.Batcher.Done v ->
        Alcotest.(check int) "each caller gets its own square" (i * i) v
      | _ -> Alcotest.fail "unexpected non-Done")
    outcomes;
  check_batch_sizes registry b ~k ~max_batch

let test_batcher_run_errors_propagate () =
  let b =
    Serve.Batcher.create ~capacity:4 ~max_batch:4
      ~run:(fun _ -> [||])
      ()
  in
  (match Serve.Batcher.submit b 1 with
  | Serve.Batcher.Failed (Failure m) ->
    Alcotest.(check string) "wrong-sized run flagged"
      "Batcher: run returned a wrong-sized array" m
  | _ -> Alcotest.fail "expected Failed");
  Serve.Batcher.shutdown b

(* ------------------------------------------------------------------ *)
(* daemon, end to end                                                  *)
(* ------------------------------------------------------------------ *)

let test_config =
  {
    Serve.Daemon.default_config with
    n = 16;
    port = 0;
    http_workers = 4;
    max_batch = 8;
  }

let decode_sign_response ~params body =
  match Jsonx.parse body with
  | Error e -> Alcotest.failf "bad sign JSON: %s" e
  | Ok j ->
    let str name =
      match Jsonx.member name j with
      | Some (Jsonx.Str s) -> s
      | _ -> Alcotest.failf "missing %s" name
    in
    let num name =
      match Option.bind (Jsonx.member name j) Jsonx.to_int with
      | Some v -> v
      | None -> Alcotest.failf "missing %s" name
    in
    let sig_bytes = Ctg_util.Hex.decode (str "sig") in
    match F.Codec.decode_signature ~params sig_bytes with
    | None -> Alcotest.fail "undecodable signature"
    | Some (salt, s2) -> (salt, s2, num "lane", num "batch", sig_bytes)

let test_daemon_live_e2e () =
  let d = Serve.Daemon.create test_config in
  let port = Serve.Daemon.port d in
  let params = Serve.Daemon.params_of_n test_config.Serve.Daemon.n in
  let bound_sq = F.Sign.norm_bound_sq params in
  let per_tenant = 6 in
  let tenants = [| "alice"; "bob" |] in
  (* Concurrent tenants over live HTTP; every signature verified and its
     lane recorded for the bit-identity replay below.  The checks run on
     this domain after the joins: Alcotest's reporting is not safe to
     call from two domains at once. *)
  let results =
    Array.map
      (fun tenant ->
        Domain.spawn (fun () ->
            let c = Client.connect ~port () in
            let out =
              Array.init per_tenant (fun i ->
                  let msg = Printf.sprintf "%s message %d" tenant i in
                  let r =
                    Client.request c ~meth:"POST"
                      ~path:("/v1/sign?tenant=" ^ tenant)
                      ~body:msg ()
                  in
                  (msg, r))
            in
            Client.close c;
            (tenant, out)))
      tenants
    |> Array.map Domain.join
    |> Array.map (fun (tenant, out) ->
           let kp = Serve.Keyring.lookup (Serve.Daemon.keyring d) ~tenant in
           ( tenant,
             Array.map
               (fun (msg, r) ->
                 Alcotest.(check int) "sign 200" 200 r.Client.status;
                 let salt, s2, lane, batch, sig_bytes =
                   decode_sign_response ~params r.Client.body
                 in
                 Alcotest.(check bool) "signature verifies" true
                   (F.Verify.verify ~params ~h:kp.F.Keygen.h ~bound_sq
                      ~msg:(Bytes.of_string msg) ~salt ~s2);
                 ignore (batch : int);
                 (msg, lane, sig_bytes))
               out ))
  in
  (* Scrape /metrics over the wire: Promtext round-trip plus per-tenant
     counters and latency histograms. *)
  let metrics = Client.one_shot ~port ~meth:"GET" ~path:"/metrics" () in
  Alcotest.(check int) "/metrics 200" 200 metrics.Client.status;
  (match Promtext.parse metrics.Client.body with
  | Error e -> Alcotest.failf "metrics not parseable: %s" e
  | Ok items ->
    Alcotest.(check string) "promtext render inverts parse"
      metrics.Client.body (Promtext.render items);
    Array.iter
      (fun tenant ->
        Alcotest.(check (option (float 0.0)))
          (tenant ^ " request counter")
          (Some (float_of_int per_tenant))
          (Promtext.value items ~name:"serve_requests_total"
             ~labels:[ ("tenant", tenant) ]);
        Alcotest.(check bool)
          (tenant ^ " latency histogram exposed")
          true
          (Promtext.value items ~name:"serve_request_latency_ns_p50"
             ~labels:[ ("tenant", tenant) ]
           <> None))
      tenants;
    Alcotest.(check bool) "batch histogram exposed" true
      (Promtext.value items ~name:"serve_batch_size_count" ~labels:[] <> None));
  let health = Client.one_shot ~port ~meth:"GET" ~path:"/healthz" () in
  Alcotest.(check int) "healthz 200 on clean traffic" 200 health.Client.status;
  let tl = Client.one_shot ~port ~meth:"GET" ~path:"/v1/tenants" () in
  Alcotest.(check bool) "both tenants listed" true
    (match Jsonx.parse tl.Client.body with
    | Ok j ->
      (match Jsonx.member "tenants" j with
      | Some (Jsonx.List l) -> List.length l = 2
      | _ -> false)
    | Error _ -> false);
  Alcotest.(check bool) "live drift samples observed" true
    (Ctg_assure.Drift.samples
       (Ctg_assure.Monitor.drift (Serve.Daemon.monitor d))
     > 0);
  Serve.Daemon.stop d;
  Serve.Daemon.stop d (* idempotent *);
  (* Bit-identity: replay every (msg, lane) through a direct sign_many on
     the same master sampler and key — batched daemon output must match
     byte for byte, whatever batches the scheduler formed. *)
  let master =
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global
      ~sigma:test_config.Serve.Daemon.sigma
      ~precision:test_config.Serve.Daemon.precision
      ~tail_cut:test_config.Serve.Daemon.tail_cut ()
  in
  let make_base () =
    F.Base_sampler.of_instance (Sig.of_bitsliced (Ctgauss.Sampler.clone master))
  in
  let kr =
    Serve.Keyring.create
      ~registry:(Registry.create ())
      ~seed_prefix:test_config.Serve.Daemon.key_seed ~params ()
  in
  Array.iter
    (fun (tenant, out) ->
      let kp = Serve.Keyring.lookup kr ~tenant in
      Array.iter
        (fun (msg, lane, sig_bytes) ->
          let sigs =
            F.Sign.sign_many ~lanes:[| lane |] ~check:false kp ~make_base
              ~seed:test_config.Serve.Daemon.seed
              ~msgs:[| Bytes.of_string msg |]
          in
          let replay =
            F.Codec.encode_signature ~salt:sigs.(0).F.Sign.salt
              ~s2:sigs.(0).F.Sign.s2
          in
          Alcotest.(check bool)
            "batched signature = sequential replay" true (replay = sig_bytes))
        out)
    results

let test_daemon_healthz_flips_on_alarm () =
  let config = { test_config with drift_window = 512 } in
  let d = Serve.Daemon.create ~listen:false config in
  let handler = Serve.Daemon.handler d in
  let get path =
    handler
      { Http.meth = "GET"; path; query = []; headers = []; body = "" }
  in
  Alcotest.(check int) "healthz 200 before" 200 (get "/healthz").Http.status;
  (* Inject a grossly biased window into the daemon's own drift monitor —
     the wiring under test is alarm -> verdict -> 503. *)
  let drift = Ctg_assure.Monitor.drift (Serve.Daemon.monitor d) in
  Ctg_assure.Drift.observe drift (Array.make 512 3);
  Alcotest.(check bool) "alarm recorded" true (Ctg_assure.Drift.alarms drift > 0);
  Alcotest.(check int) "healthz 503 after alarm" 503 (get "/healthz").Http.status;
  Alcotest.(check bool) "daemon reports unhealthy" false (Serve.Daemon.healthy d);
  Serve.Daemon.stop d

let test_daemon_rejects_bad_tenants () =
  let d = Serve.Daemon.create ~listen:false test_config in
  let handler = Serve.Daemon.handler d in
  let post path body =
    handler { Http.meth = "POST"; path; query = []; headers = []; body }
  in
  Alcotest.(check int) "missing tenant 400" 400
    (post "/v1/sign" "hi").Http.status;
  let bad =
    handler
      {
        Http.meth = "POST";
        path = "/v1/sign";
        query = [ ("tenant", "../etc") ];
        headers = [];
        body = "hi";
      }
  in
  Alcotest.(check int) "invalid tenant 400" 400 bad.Http.status;
  Alcotest.(check int) "unknown path 404" 404
    (post "/v1/nope" "").Http.status;
  let call meth path =
    (handler { Http.meth; path; query = []; headers = []; body = "" }).Http.status
  in
  Alcotest.(check int) "unknown GET path 404" 404 (call "GET" "/nope");
  Alcotest.(check int) "other methods 405" 405 (call "PUT" "/metrics");
  Serve.Daemon.stop d;
  let after =
    handler
      {
        Http.meth = "POST";
        path = "/v1/sign";
        query = [ ("tenant", "alice") ];
        headers = [];
        body = "hi";
      }
  in
  Alcotest.(check int) "draining daemon answers 503" 503 after.Http.status

(* ------------------------------------------------------------------ *)
(* request ids, latency split, causal trace                            *)
(* ------------------------------------------------------------------ *)

let rid_of (r : Client.response) =
  match List.assoc_opt "x-request-id" r.Client.headers with
  | Some v -> v
  | None -> Alcotest.fail "response without X-Request-Id"

let test_request_id_roundtrip () =
  let srv =
    Http.start_handler ~port:0 ~workers:2 echo_handler
  in
  let port = Http.port srv in
  let c = Client.connect ~port () in
  let r1 =
    Client.request c ~meth:"POST" ~path:"/echo"
      ~headers:[ ("X-Request-Id", "test-rid-42") ]
      ~body:"x" ()
  in
  Alcotest.(check string) "client id adopted and echoed" "test-rid-42"
    (rid_of r1);
  let r2 = Client.request c ~meth:"GET" ~path:"/greet" () in
  Alcotest.(check bool) "generated id when absent" true
    (Http.valid_request_id (rid_of r2));
  let r3 =
    Client.request c ~meth:"GET" ~path:"/missing"
      ~headers:[ ("x-request-id", "err-rid-404") ]
      ()
  in
  Alcotest.(check int) "404 status" 404 r3.Client.status;
  Alcotest.(check string) "echoed on 404" "err-rid-404" (rid_of r3);
  let r4 =
    Client.request c ~meth:"GET" ~path:"/greet"
      ~headers:[ ("X-Request-Id", "bad!id") ]
      ()
  in
  Alcotest.(check bool) "malformed id replaced, not echoed" true
    (rid_of r4 <> "bad!id" && Http.valid_request_id (rid_of r4));
  Client.close c;
  (* The 413 error path still carries the id: the head parsed far enough
     to recover it before the body was refused. *)
  let status, reply =
    oversized_post ~port ~headers:[ ("X-Request-Id", "big-rid") ]
  in
  Alcotest.(check int) "413 over max_body" 413 status;
  Alcotest.(check bool) "echoed on 413" true
    (contains reply "\r\nX-Request-Id: big-rid\r\n");
  Http.stop srv

let test_batcher_latency_split () =
  let registry = Registry.create () in
  let k = 5 and max_batch = 8 in
  let b, outcomes =
    coalesce_behind_first ~registry ~k ~max_batch (fun reqs ->
        Unix.sleepf 0.002;
        Array.map (fun x -> x + 1) reqs)
  in
  Serve.Batcher.shutdown b;
  Array.iter
    (function
      | Serve.Batcher.Done _ -> ()
      | _ -> Alcotest.fail "unexpected non-Done")
    outcomes;
  let batches = Serve.Batcher.batches b in
  let summary name =
    Registry.histo_summary (Registry.histo registry name)
  in
  let qw = summary "serve_queue_wait_ns" in
  let sv = summary "serve_service_ns" in
  Alcotest.(check int) "queue wait observed once per request" (k + 1)
    qw.Histo.count;
  Alcotest.(check int) "service observed once per batch" batches
    sv.Histo.count;
  Alcotest.(check bool) "service time covers the run" true
    (sv.Histo.max >= 2_000_000);
  check_batch_sizes registry b ~k ~max_batch

let test_daemon_trace_slice_e2e () =
  let d = Serve.Daemon.create { test_config with trace = true } in
  Fun.protect
    ~finally:(fun () -> Obs.Trace.disable ())
    (fun () ->
      let port = Serve.Daemon.port d in
      let rid = "e2e-trace-rid-1" in
      let r =
        Client.one_shot ~port ~meth:"POST" ~path:"/v1/sign?tenant=alice"
          ~headers:[ ("X-Request-Id", rid) ]
          ~body:"traced message" ()
      in
      Alcotest.(check int) "sign 200" 200 r.Client.status;
      Alcotest.(check string) "rid echoed on success" rid (rid_of r);
      (* Daemon-level error path: 400 still echoes the id. *)
      let bad =
        Client.one_shot ~port ~meth:"POST" ~path:"/v1/sign"
          ~headers:[ ("X-Request-Id", "err-rid-400") ]
          ~body:"x" ()
      in
      Alcotest.(check int) "missing tenant 400" 400 bad.Client.status;
      Alcotest.(check string) "rid echoed on 400" "err-rid-400" (rid_of bad);
      (* The per-request slice: request -> batch -> sign, one flow id. *)
      let tr =
        Client.one_shot ~port ~meth:"GET"
          ~path:("/v1/trace?request_id=" ^ rid)
          ()
      in
      Alcotest.(check int) "trace slice 200" 200 tr.Client.status;
      (match Jsonx.parse tr.Client.body with
      | Error e -> Alcotest.failf "trace slice JSON: %s" e
      | Ok j ->
        let evs =
          match Option.bind (Jsonx.member "traceEvents" j) Jsonx.to_list with
          | Some l -> l
          | None -> Alcotest.fail "slice without traceEvents"
        in
        let strs key =
          List.filter_map
            (fun e -> Option.bind (Jsonx.member key e) Jsonx.to_str)
            evs
        in
        List.iter
          (fun n ->
            Alcotest.(check bool) (n ^ " span in slice") true
              (List.mem n (strs "name")))
          [ "request"; "batch"; "sign" ];
        List.iter
          (fun p ->
            Alcotest.(check bool) ("flow ph " ^ p) true
              (List.mem p (strs "ph")))
          [ "s"; "t"; "f" ];
        match
          List.filter_map
            (fun e ->
              match Jsonx.member "ph" e with
              | Some (Jsonx.Str ("s" | "t" | "f")) ->
                Option.bind (Jsonx.member "id" e) Jsonx.to_int
              | _ -> None)
            evs
        with
        | [] -> Alcotest.fail "slice has no flow ids"
        | x :: tl ->
          List.iter
            (fun y -> Alcotest.(check int) "one flow id per request" x y)
            tl);
      let missing =
        Client.one_shot ~port ~meth:"GET" ~path:"/v1/trace?request_id=nope" ()
      in
      Alcotest.(check int) "unknown rid 404" 404 missing.Client.status;
      let full = Client.one_shot ~port ~meth:"GET" ~path:"/v1/trace" () in
      Alcotest.(check int) "full export 200" 200 full.Client.status;
      (* The latency histogram kept the request id as an exemplar. *)
      let h =
        Registry.histo (Serve.Daemon.registry d)
          ~labels:[ ("tenant", "alice") ]
          "serve_request_latency_ns"
      in
      Alcotest.(check bool) "exemplar links rid to its slice" true
        (List.exists (fun (_, id) -> id = rid) (Registry.exemplars h));
      Serve.Daemon.stop d)

let test_daemon_trace_off_404 () =
  let d = Serve.Daemon.create ~listen:false test_config in
  let handler = Serve.Daemon.handler d in
  let r =
    handler
      { Http.meth = "GET"; path = "/v1/trace"; query = []; headers = [];
        body = "" }
  in
  Alcotest.(check int) "tracing off: /v1/trace 404" 404 r.Http.status;
  Serve.Daemon.stop d

(* ------------------------------------------------------------------ *)
(* runtime telemetry (rtev)                                            *)
(* ------------------------------------------------------------------ *)

module Rtev = Ctg_rtev.Rtev

let test_daemon_rtev_e2e () =
  let d = Serve.Daemon.create { test_config with rtev = true; trace = true } in
  Fun.protect
    ~finally:(fun () -> Obs.Trace.disable ())
    (fun () ->
      Alcotest.(check bool) "runtime ring started" true
        (Serve.Daemon.rtev_active d);
      let port = Serve.Daemon.port d in
      let rid = "rtev-rid-1" in
      let r =
        Client.one_shot ~port ~meth:"POST" ~path:"/v1/sign?tenant=alice"
          ~headers:[ ("X-Request-Id", rid) ]
          ~body:"rtev message" ()
      in
      Alcotest.(check int) "sign 200" 200 r.Client.status;
      (* Force a stop-the-world pause while the daemon is live, then one
         explicit consumer poll (the background poller is asynchronous). *)
      Gc.compact ();
      ignore (Rtev.poll ());
      Alcotest.(check bool) "pauses decoded while serving" true
        (Rtev.pause_count () > 0);
      let metrics = Client.one_shot ~port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check int) "/metrics 200" 200 metrics.Client.status;
      (match Promtext.parse metrics.Client.body with
      | Error e -> Alcotest.failf "metrics not parseable: %s" e
      | Ok items ->
        Alcotest.(check bool) "serve_gc_pause_ns exposed" true
          (Promtext.value items ~name:"serve_gc_pause_ns_count" ~labels:[]
           <> None);
        Alcotest.(check bool) "aggregate gc_pause_ns exposed" true
          (Promtext.value items ~name:"gc_pause_ns_count" ~labels:[]
           <> None));
      (* The batch run carried its first request id into the pause-split
         histogram as an exemplar — a pause outlier links to a request. *)
      let h = Registry.histo (Serve.Daemon.registry d) "serve_gc_pause_ns" in
      Alcotest.(check bool) "pause split keeps the rid exemplar" true
        (List.exists (fun (_, id) -> id = rid) (Registry.exemplars h));
      (* With tracing on, the request's slice can carry GC pause spans on
         the synthetic per-domain tracks; the full export must have them
         after a forced compaction. *)
      let full = Client.one_shot ~port ~meth:"GET" ~path:"/v1/trace" () in
      Alcotest.(check int) "full trace 200" 200 full.Client.status;
      (match Jsonx.parse full.Client.body with
      | Error e -> Alcotest.failf "trace JSON: %s" e
      | Ok j ->
        let evs =
          match Option.bind (Jsonx.member "traceEvents" j) Jsonx.to_list with
          | Some l -> l
          | None -> Alcotest.fail "trace without traceEvents"
        in
        Alcotest.(check bool) "GC pause spans in the live trace" true
          (List.exists
             (fun e ->
               match Jsonx.member "cat" e with
               | Some (Jsonx.Str "gc") -> true
               | _ -> false)
             evs));
      Serve.Daemon.stop d)

let test_daemon_pause_budget_flips_healthz () =
  (* A 1 ns budget: the first real pause breaches it, the monitor check
     fails and /healthz flips 503. *)
  let d =
    Serve.Daemon.create
      { test_config with rtev = true; pause_budget_ms = 1e-6 }
  in
  Alcotest.(check bool) "runtime ring started" true
    (Serve.Daemon.rtev_active d);
  let port = Serve.Daemon.port d in
  let r =
    Client.one_shot ~port ~meth:"POST" ~path:"/v1/sign?tenant=alice"
      ~body:"budget message" ()
  in
  Alcotest.(check int) "sign 200" 200 r.Client.status;
  Gc.compact ();
  ignore (Rtev.poll ());
  Alcotest.(check bool) "budget breaches recorded" true
    (Rtev.budget_breaches () > 0);
  Alcotest.(check bool) "breach counter in the daemon registry" true
    (Registry.value
       (Registry.counter (Serve.Daemon.registry d)
          "gc_pause_budget_breaches_total")
     > 0);
  Alcotest.(check bool) "gc_pause_budget check failing" true
    (List.mem "gc_pause_budget"
       (Ctg_assure.Monitor.failing_monitors (Serve.Daemon.monitor d)));
  let health = Client.one_shot ~port ~meth:"GET" ~path:"/healthz" () in
  Alcotest.(check int) "healthz 503 on budget breach" 503 health.Client.status;
  Serve.Daemon.stop d

(* Forced compactions under load: each batch's [serve_gc_pause_ns]
   charge lies inside its own run, so none exceeds the longest service
   time.  A charge that summed every ring's report of one stop-the-world
   pause (one per live domain) could. *)
let test_daemon_pause_charge_within_service () =
  let d = Serve.Daemon.create { test_config with rtev = true } in
  Alcotest.(check bool) "runtime ring started" true
    (Serve.Daemon.rtev_active d);
  let port = Serve.Daemon.port d in
  (* Key generation and the first signing batch run long, with or without
     a pause: settle their charges and leave them out of the registry. *)
  List.iter
    (fun tenant ->
      let r =
        Client.one_shot ~port ~meth:"POST" ~path:("/v1/sign?tenant=" ^ tenant)
          ~body:"warm-up" ()
      in
      Alcotest.(check int) "warm-up 200" 200 r.Client.status)
    [ "alice"; "bob" ];
  ignore (Rtev.poll ());
  Registry.reset (Serve.Daemon.registry d);
  let batches0 = Serve.Daemon.batches d in
  let finished = Atomic.make 0 in
  let clients =
    Array.map
      (fun tenant ->
        Domain.spawn (fun () ->
            let c = Client.connect ~port () in
            let statuses =
              List.init 12 (fun i ->
                  (Client.request c ~meth:"POST"
                     ~path:("/v1/sign?tenant=" ^ tenant)
                     ~body:(Printf.sprintf "%s load %d" tenant i) ())
                    .Client.status)
            in
            Client.close c;
            Atomic.incr finished;
            statuses))
      [| "alice"; "bob" |]
  in
  let rec compact () =
    Gc.compact ();
    if Atomic.get finished < 2 then compact ()
  in
  compact ();
  let statuses = Array.map Domain.join clients in
  (* Stopping settles every batch window still waiting for a poll. *)
  Serve.Daemon.stop d;
  Array.iter (List.iter (Alcotest.(check int) "sign 200" 200)) statuses;
  let summary name =
    Registry.histo_summary (Registry.histo (Serve.Daemon.registry d) name)
  in
  let pause = summary "serve_gc_pause_ns"
  and service = summary "serve_service_ns" in
  Alcotest.(check int) "every batch charged once"
    (Serve.Daemon.batches d - batches0)
    pause.Obs.Histo.count;
  Alcotest.(check bool)
    (Printf.sprintf "largest charge %d ns <= largest service %d ns"
       pause.Obs.Histo.max service.Obs.Histo.max)
    true
    (pause.Obs.Histo.max <= service.Obs.Histo.max)

let test_trace_slice_includes_gc_spans () =
  (* Pure unit test of the slice filter: the request/batch events are
     kept by arg matching, and exactly the GC pause spans overlapping the
     slice's wall-clock window ride along. *)
  let ev ?(args = []) ?(cat = "serve") ?(dur = 10) ~ts name =
    {
      Obs.Trace.name;
      cat;
      ph = Obs.Trace.Complete;
      ts_ns = ts;
      dur_ns = dur;
      tid = 1;
      id = -1;
      args;
    }
  in
  let evs =
    [
      ev ~ts:1_000 ~dur:100
        ~args:[ ("request_id", "r1"); ("lane", "7") ]
        "request";
      ev ~ts:1_020 ~dur:50 ~args:[ ("lanes", "7,9") ] "batch";
      (* Overlaps the [1000, 1100] window. *)
      ev ~ts:1_050 ~dur:20 ~cat:"gc" "gc:stw_leader";
      (* Straddles the window start. *)
      ev ~ts:990 ~dur:15 ~cat:"gc" "gc:minor";
      (* Far outside the window: must not ride along. *)
      ev ~ts:5_000 ~dur:20 ~cat:"gc" "gc:stw_leader";
      ev ~ts:2_000 ~dur:5
        ~args:[ ("request_id", "r2"); ("lane", "8") ]
        "request";
    ]
  in
  (match Serve.Daemon.trace_slice_events ~rid:"r1" evs with
  | None -> Alcotest.fail "slice missing"
  | Some kept ->
    let names = List.map (fun e -> e.Obs.Trace.name) kept in
    Alcotest.(check bool) "request kept" true (List.mem "request" names);
    Alcotest.(check bool) "batch kept via lanes arg" true
      (List.mem "batch" names);
    Alcotest.(check bool) "other request excluded" true
      (not
         (List.exists
            (fun e ->
              List.assoc_opt "request_id" e.Obs.Trace.args = Some "r2")
            kept));
    let gcs = List.filter (fun e -> e.Obs.Trace.cat = "gc") kept in
    Alcotest.(check int) "exactly the overlapping gc spans" 2
      (List.length gcs));
  Alcotest.(check bool) "unknown rid is None" true
    (Serve.Daemon.trace_slice_events ~rid:"zzz" evs = None)

(* ------------------------------------------------------------------ *)
(* client retry policy                                                 *)
(* ------------------------------------------------------------------ *)

(* A port that refuses connections: bind, read the port, close. *)
let dead_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let raises_refused f =
  try
    Client.close (f ());
    Alcotest.fail "dead port should not answer"
  with Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()

let test_retry_backoff_schedule () =
  let port = dead_port () in
  let t0 = Unix.gettimeofday () in
  raises_refused (fun () -> Client.connect_retry ~port ());
  (* Three attempts slept 50 ms, then 100 ms, before the last refusal. *)
  Alcotest.(check bool) "slept the doubling backoff" true
    (Unix.gettimeofday () -. t0 >= 0.15)

let test_retry_deadline () =
  (* A listener that never accepts: the kernel completes the connect, no
     response ever comes, and the 5 s deadline (the socket timeout) ends
     the request instead of letting it block forever. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen fd 1;
      let port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      let t0 = Unix.gettimeofday () in
      let c = Client.connect_retry ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.request c ~meth:"GET" ~path:"/" () with
          | _ -> Alcotest.fail "a silent server must not answer"
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Alcotest.(check bool) "failed at the deadline" true
              (Unix.gettimeofday () -. t0 >= 4.5)))

let test_retry_live_server () =
  let srv = Http.start_handler ~port:0 ~workers:1 echo_handler in
  let port = Http.port srv in
  let c = Client.connect_retry ~port () in
  let r = Client.request c ~meth:"GET" ~path:"/greet?who=retry" () in
  Client.close c;
  Alcotest.(check int) "200 first try" 200 r.Client.status;
  Alcotest.(check string) "body" "hello retry" r.Client.body;
  Http.stop srv

let test_retry_classification () =
  (* A bad address is not a transport failure: raised by the first
     attempt, before the first 50 ms backoff sleep. *)
  let t0 = Unix.gettimeofday () in
  (match Client.connect_retry ~host:"not-an-address" ~port:1 () with
  | c ->
    Client.close c;
    Alcotest.fail "bad address should not connect"
  | exception Failure _ -> ());
  Alcotest.(check bool) "not retried" true (Unix.gettimeofday () -. t0 < 0.05);
  (* Refused connects are retried, and the attempts stop well inside the
     deadline. *)
  let t0 = Unix.gettimeofday () in
  raises_refused (fun () -> Client.connect_retry ~port:(dead_port ()) ());
  Alcotest.(check bool) "bounded attempts" true
    (Unix.gettimeofday () -. t0 < 5.0)

let () =
  Alcotest.run "serve"
    [
      ( "client-retry",
        [
          Alcotest.test_case "backoff schedule on refused connects" `Quick
            test_retry_backoff_schedule;
          Alcotest.test_case "deadline bounds the whole request" `Quick
            test_retry_deadline;
          Alcotest.test_case "live server connects first try" `Quick
            test_retry_live_server;
          Alcotest.test_case "transient classification and caps" `Quick
            test_retry_classification;
        ] );
      ( "net",
        [
          Alcotest.test_case "keep-alive, bodies, errors" `Quick
            test_keepalive_and_bodies;
          Alcotest.test_case "chunked request body" `Quick test_chunked_body;
          Alcotest.test_case "oversized body rejected" `Quick
            test_oversized_body_rejected;
          Alcotest.test_case "oversized body sent gets 413, not a reset"
            `Quick test_oversized_body_one_shot;
          Alcotest.test_case "stop is clean and idempotent" `Quick
            test_stop_is_clean;
          Alcotest.test_case "request id round-trips, also on errors" `Quick
            test_request_id_roundtrip;
        ] );
      ( "keyring",
        [
          Alcotest.test_case "single-flight keygen" `Quick
            test_keyring_single_flight;
          Alcotest.test_case "deterministic derivation" `Quick
            test_keyring_deterministic;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "backpressure bound and shed" `Quick
            test_batcher_backpressure_and_shed;
          Alcotest.test_case "results match requests" `Quick
            test_batcher_results_match_requests;
          Alcotest.test_case "run errors propagate" `Quick
            test_batcher_run_errors_propagate;
          Alcotest.test_case "queue-wait vs service latency split" `Quick
            test_batcher_latency_split;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "live e2e: sign, verify, scrape" `Quick
            test_daemon_live_e2e;
          Alcotest.test_case "healthz flips on drift alarm" `Quick
            test_daemon_healthz_flips_on_alarm;
          Alcotest.test_case "request validation" `Quick
            test_daemon_rejects_bad_tenants;
          Alcotest.test_case "causal trace slice + exemplars" `Quick
            test_daemon_trace_slice_e2e;
          Alcotest.test_case "/v1/trace 404 when tracing off" `Quick
            test_daemon_trace_off_404;
        ] );
      ( "rtev",
        [
          Alcotest.test_case "live e2e: pause split, exemplar, gc spans"
            `Quick test_daemon_rtev_e2e;
          Alcotest.test_case "pause budget flips healthz" `Quick
            test_daemon_pause_budget_flips_healthz;
          Alcotest.test_case "pause charge within service under compaction"
            `Quick test_daemon_pause_charge_within_service;
          Alcotest.test_case "trace slice carries overlapping gc spans"
            `Quick test_trace_slice_includes_gc_spans;
        ] );
    ]

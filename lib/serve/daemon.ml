(* The multi-tenant Falcon signing daemon: HTTP request path (shared
   Ctg_net stack), per-tenant keyring, request batching onto a persistent
   Workforce, and the PR-5 assurance monitors fed from *live* signing
   traffic — /healthz guards a real request path now.

   Randomness discipline: every accepted request is assigned a lane of the
   daemon's master seed from an atomic counter at submit time, and
   Sign.sign_many is called with those explicit lanes.  A request's
   signature is therefore a pure function of (seed, lane, key, message) —
   independent of which batch the scheduler packed it into, which is what
   the bit-identity test pins. *)

open Ctg_sync.Shim
module Obs = Ctg_obs
module Rtev = Ctg_rtev.Rtev
module Assure = Ctg_assure
module F = Ctg_falcon
module Sig = Ctg_samplers.Sampler_sig
module Jsonx = Obs.Jsonx
module Http = Ctg_net.Http

type config = {
  n : int;
  sigma : string;
  precision : int;
  tail_cut : int;
  host : string;
  port : int;
  http_workers : int;
  queue_capacity : int;
  max_batch : int;
  sign_domains : int option;
  check : bool;
  drift_window : int;
  seed : string;
  key_seed : string;
  trace : bool;
  rtev : bool;
  pause_budget_ms : float;
}

let default_config =
  {
    n = 64;
    sigma = "2";
    precision = 16;
    tail_cut = 13;
    host = "127.0.0.1";
    port = 8732;
    http_workers = 8;
    queue_capacity = 64;
    max_batch = 16;
    sign_domains = None;
    check = true;
    drift_window = 50_000;
    seed = "ctg-serve";
    key_seed = "ctg-serve-key";
    trace = false;
    rtev = false;
    pause_budget_ms = 0.0;
  }

type sign_request = {
  tenant : string;
  msg : bytes;
  lane : int;
  t_submit : int;
  rid : string;  (* X-Request-Id, threaded through for trace/flow args *)
}

type sign_result = {
  tenant : string;
  signature : F.Sign.signature;
  encoded : bytes;
  lane : int;
  batch : int;  (** Size of the batch this request was coalesced into. *)
}

type t = {
  config : config;
  params : F.Params.t;
  registry : Obs.Registry.t;
  monitor : Assure.Monitor.t;
  keyring : Keyring.t;
  workforce : Ctg_engine.Workforce.t;
  master : Ctgauss.Sampler.t;
  batcher : (sign_request, sign_result) Batcher.t;
  lane_counter : int Atomic.t;
  serve_gc_pause : Obs.Registry.histo option;
      (* Some when config.rtev and the runtime ring actually started *)
  mutable server : Http.server option;
  mutable stopped : bool;
  stop_mu : Mutex.t;
  (* Metric handles that are not per-tenant. *)
  requests_histo_mu : Mutex.t;
  mutable tenant_handles :
    (string * (Obs.Registry.counter * Obs.Registry.histo)) list;
}

(* ------------------------------------------------------------------ *)
(* Live drift feed                                                     *)
(* ------------------------------------------------------------------ *)

(* Each base-sampler instance buffers its raw signed draws and folds them
   into the drift monitor a block at a time (Drift.observe_sub locks a
   mutex — amortize it).  The partial tail of an instance is dropped,
   which is value-independent and therefore unbiased; the monitor just
   sees a slightly smaller sample volume.  The block is capped at the
   draws of one signing attempt (2n) so small ring degrees still flush —
   an instance that never fills its buffer would feed the monitor
   nothing. *)
let observed_base ~n drift master =
  let inst = Sig.of_bitsliced (Ctgauss.Sampler.clone master) in
  let cap = max 16 (min 64 (2 * n)) in
  let buf = Array.make cap 0 in
  let fill = ref 0 in
  let observe v =
    buf.(!fill) <- v;
    incr fill;
    if !fill = cap then begin
      Assure.Drift.observe_sub drift buf ~pos:0 ~len:cap;
      fill := 0
    end
  in
  F.Base_sampler.of_instance ~observe inst

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

let run_batch_inner t (reqs : sign_request array) : sign_result array =
  let drift = Assure.Monitor.drift t.monitor in
  let batch = Array.length reqs in
  (* Group by tenant, preserving submission order inside each group. *)
  let groups = Hashtbl.create 4 in
  let order = ref [] in
  Array.iteri
    (fun i (r : sign_request) ->
      match Hashtbl.find_opt groups r.tenant with
      | Some l -> l := i :: !l
      | None ->
        Hashtbl.replace groups r.tenant (ref [ i ]);
        order := r.tenant :: !order)
    reqs;
  let out = Array.make batch None in
  List.iter
    (fun tenant ->
      let idxs = List.rev !(Hashtbl.find groups tenant) in
      let kp = Keyring.lookup t.keyring ~tenant in
      let msgs = Array.of_list (List.map (fun i -> reqs.(i).msg) idxs) in
      let lanes = Array.of_list (List.map (fun i -> reqs.(i).lane) idxs) in
      let sigs =
        F.Sign.sign_many ~workforce:t.workforce ~lanes ~check:t.config.check kp
          ~make_base:(fun () ->
            observed_base ~n:t.params.F.Params.n drift t.master)
          ~seed:t.config.seed ~msgs
      in
      List.iteri
        (fun j i ->
          let s = sigs.(j) in
          out.(i) <-
            Some
              {
                tenant;
                signature = s;
                encoded =
                  F.Codec.encode_signature ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2;
                lane = reqs.(i).lane;
                batch;
              })
        idxs)
    (List.rev !order);
  Array.map
    (function Some r -> r | None -> failwith "Daemon.run_batch: missing result")
    out

let run_batch_traced t (reqs : sign_request array) : sign_result array =
  Obs.Trace.with_span "batch" ~cat:"serve"
    ~args:(fun () ->
      [
        ("batch", string_of_int (Array.length reqs));
        ( "lanes",
          String.concat ","
            (Array.to_list
               (Array.map (fun (r : sign_request) -> string_of_int r.lane) reqs))
        );
      ])
    (fun () ->
      (* One flow step per coalesced request: the arrow from each request
         span passes through this batch slice on the runner domain before
         landing on the per-message sign span. *)
      Array.iter
        (fun (r : sign_request) ->
          Obs.Trace.flow_step ~id:r.lane "sig"
            ~args:(fun () -> [ ("request_id", r.rid) ]))
        reqs;
      run_batch_inner t reqs)

(* Pause-charged latency split: alongside the batcher's queue-wait and
   service histograms, [serve_gc_pause_ns] records the GC pause time that
   fell inside each batch run, by event time.  The batch only registers
   its window; the rtev poller settles it from its pause ledger, with the
   batch's first request id as exemplar — a pause outlier names a real
   request's trace slice (through Registry.exemplars; /metrics prints no
   exemplars). *)
let run_batch t (reqs : sign_request array) : sign_result array =
  match t.serve_gc_pause with
  | None -> run_batch_traced t reqs
  | Some h ->
    let rid0 = if Array.length reqs > 0 then reqs.(0).rid else "" in
    let start_ns = Obs.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        Rtev.charge ~start_ns ~end_ns:(Obs.Clock.now_ns ()) (fun ns ->
            Obs.Registry.observe_exemplar h ns rid0))
      (fun () -> run_batch_traced t reqs)

(* ------------------------------------------------------------------ *)
(* Per-tenant metrics                                                  *)
(* ------------------------------------------------------------------ *)

let tenant_handles t tenant =
  Mutex.lock t.requests_histo_mu;
  let h =
    match List.assoc_opt tenant t.tenant_handles with
    | Some h -> h
    | None ->
      let labels = [ ("tenant", tenant) ] in
      let h =
        ( Obs.Registry.counter t.registry ~labels "serve_requests_total",
          Obs.Registry.histo t.registry ~labels "serve_request_latency_ns" )
      in
      t.tenant_handles <- (tenant, h) :: t.tenant_handles;
      h
  in
  Mutex.unlock t.requests_histo_mu;
  h

(* ------------------------------------------------------------------ *)
(* HTTP surface                                                        *)
(* ------------------------------------------------------------------ *)

let json ?(status = 200) j =
  Http.response ~status ~content_type:"application/json"
    (Jsonx.pretty j ^ "\n")

let error ~status msg = json ~status (Jsonx.Obj [ ("error", Jsonx.Str msg) ])

let tenant_of_request req =
  match Http.query_param req "tenant" with
  | Some tname -> Some tname
  | None -> Http.header req "x-tenant"

let sign_response (r : sign_result) ~latency_ns =
  Jsonx.Obj
    [
      ("tenant", Str r.tenant);
      ("sig", Str (Ctg_util.Hex.encode r.encoded));
      ("attempts", Num (float_of_int r.signature.F.Sign.attempts));
      ("lane", Num (float_of_int r.lane));
      ("batch", Num (float_of_int r.batch));
      ("latency_ns", Num (float_of_int latency_ns));
    ]

let handle_sign t req =
  match tenant_of_request req with
  | None -> error ~status:400 "missing tenant (query ?tenant= or X-Tenant)"
  | Some tenant when not (Keyring.valid_tenant tenant) ->
    error ~status:400 "invalid tenant name"
  | Some tenant ->
    let counter, histo = tenant_handles t tenant in
    let rid = Http.request_id req in
    let t_submit = Obs.Clock.now_ns () in
    let sreq =
      {
        tenant;
        msg = Bytes.of_string req.Http.body;
        lane = Atomic.fetch_and_add t.lane_counter 1;
        t_submit;
        rid;
      }
    in
    let outcome =
      (* The request span covers the whole blocking submit (queue wait +
         batch run); the flow it starts — id = lane, unique per request —
         is stepped by the batch span and terminated by the per-message
         sign span, drawing request -> batch -> sign across domains. *)
      Obs.Trace.with_span "request" ~cat:"serve"
        ~args:(fun () ->
          [
            ("request_id", rid);
            ("tenant", tenant);
            ("lane", string_of_int sreq.lane);
          ])
        (fun () ->
          Obs.Trace.flow_start ~id:sreq.lane "sig"
            ~args:(fun () -> [ ("request_id", rid) ]);
          Batcher.submit t.batcher sreq)
    in
    (match outcome with
    | Batcher.Done r ->
      let latency_ns = Obs.Clock.now_ns () - t_submit in
      Obs.Registry.incr counter;
      Obs.Registry.observe_exemplar histo latency_ns rid;
      json (sign_response r ~latency_ns)
    | Batcher.Shed ->
      if Batcher.stopping t.batcher then
        error ~status:503 "draining: daemon is shutting down"
      else error ~status:429 "overloaded: signing queue is full"
    | Batcher.Failed e ->
      error ~status:500 (Printf.sprintf "signing failed: %s" (Printexc.to_string e)))

let handle_pubkey t req =
  match tenant_of_request req with
  | None -> error ~status:400 "missing tenant (query ?tenant= or X-Tenant)"
  | Some tenant when not (Keyring.valid_tenant tenant) ->
    error ~status:400 "invalid tenant name"
  | Some tenant ->
    let kp = Keyring.lookup t.keyring ~tenant in
    json
      (Jsonx.Obj
         [
           ("tenant", Str tenant);
           ("n", Num (float_of_int t.params.F.Params.n));
           ( "pk",
             Str
               (Ctg_util.Hex.encode (F.Codec.encode_public_key kp.F.Keygen.h))
           );
           ( "norm_bound_sq",
             Num (F.Sign.norm_bound_sq t.params) );
         ])

let handle_tenants t =
  json
    (Jsonx.Obj
       [
         ( "tenants",
           Jsonx.List
             (List.map (fun s -> Jsonx.Str s) (Keyring.tenants t.keyring)) );
       ])

(* The causal slice of one request: every event carrying its request id,
   plus every event on its lane's flow (the per-domain chunk/sign spans and
   the batch span, whose [lanes] arg lists the coalesced lanes).  Arg
   matching avoids reconstructing a span tree — the ids were planted for
   exactly this query. *)
let trace_slice_events ~rid evs =
  let arg k (e : Obs.Trace.event) = List.assoc_opt k e.Obs.Trace.args in
  let lane =
    List.find_map
      (fun e ->
        match arg "request_id" e with
        | Some r when r = rid -> arg "lane" e
        | _ -> None)
      evs
  in
  match lane with
  | None -> None
  | Some lane ->
    let keep e =
      (match arg "request_id" e with Some r -> r = rid | None -> false)
      || (match arg "lane" e with Some l -> l = lane | None -> false)
      || (match arg "lanes" e with
         | Some ls -> List.mem lane (String.split_on_char ',' ls)
         | None -> false)
    in
    let kept = List.filter keep evs in
    (* Fold in the GC pause spans (rtev's synthetic per-domain tracks)
       overlapping the request's wall-clock window, so the slice shows
       the pauses that hit it. *)
    let window =
      List.fold_left
        (fun acc (e : Obs.Trace.event) ->
          let t0 = e.Obs.Trace.ts_ns in
          let t1 = t0 + max 0 e.Obs.Trace.dur_ns in
          match acc with
          | None -> Some (t0, t1)
          | Some (w0, w1) -> Some (min w0 t0, max w1 t1))
        None kept
    in
    let gc =
      match window with
      | None -> []
      | Some (w0, w1) ->
        List.filter
          (fun (e : Obs.Trace.event) ->
            e.Obs.Trace.cat = "gc"
            && e.Obs.Trace.ph = Obs.Trace.Complete
            && e.Obs.Trace.ts_ns < w1
            && e.Obs.Trace.ts_ns + e.Obs.Trace.dur_ns > w0)
          evs
    in
    Some (kept @ gc)

let trace_slice rid = trace_slice_events ~rid (Obs.Trace.events ())

let handle_trace t req =
  if not t.config.trace then
    error ~status:404 "tracing disabled (start the daemon with trace enabled)"
  else
    match Http.query_param req "request_id" with
    | None -> json (Obs.Trace.export ())
    | Some rid -> (
      match trace_slice rid with
      | None -> error ~status:404 ("no buffered trace for request_id " ^ rid)
      | Some evs -> json (Obs.Trace.export_events evs))

let handler t : Http.handler =
  (* The monitor's routes answer every other GET (404 off the table) and
     every method but GET and POST (405). *)
  let monitor =
    Http.handler_of_routes (Assure.Monitor.routes t.monitor ~registry:t.registry)
  in
  fun req ->
    match (req.Http.meth, req.Http.path) with
    | "POST", "/v1/sign" -> handle_sign t req
    | "GET", "/v1/pubkey" -> handle_pubkey t req
    | "GET", "/v1/tenants" -> handle_tenants t
    | "GET", "/v1/trace" -> handle_trace t req
    | "POST", path ->
      Http.response ~status:404 (Printf.sprintf "no route for %s\n" path)
    | _ -> monitor req

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let params_of_n n =
  match n with
  | 256 -> F.Params.level1
  | 512 -> F.Params.level2
  | 1024 -> F.Params.level3
  | _ -> F.Params.custom ~n

let create ?(listen = true) config =
  if config.trace then Obs.Trace.enable ();
  let params = params_of_n config.n in
  let registry = Obs.Registry.create () in
  let master =
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma:config.sigma
      ~precision:config.precision ~tail_cut:config.tail_cut ()
  in
  let labels = [ ("sigma", config.sigma) ] in
  let drift_config =
    { Assure.Drift.default_config with window = config.drift_window }
  in
  let monitor =
    Assure.Monitor.create ~config:drift_config ~registry ~labels
      ~matrix:(Ctgauss.Sampler.matrix master) ()
  in
  let keyring =
    Keyring.create ~registry ~seed_prefix:config.key_seed ~params ()
  in
  let workforce = Ctg_engine.Workforce.create ?domains:config.sign_domains () in
  (* The batcher's run-function needs the daemon record; tie the knot with
     a ref rather than [lazy] (OCaml 5 [Lazy.force] is not domain-safe and
     the runner domain would race the main domain's force).  The ref is
     written before any request can be submitted, and the batcher's mutex
     publishes it to the runner domain. *)
  let self = ref None in
  let run reqs =
    match !self with
    | Some t -> run_batch t reqs
    | None -> failwith "Daemon: batch before initialisation"
  in
  let batcher =
    Batcher.create ~registry ~capacity:config.queue_capacity
      ~max_batch:config.max_batch ~run ()
  in
  (* Start the rtev consumer before the record is built so its availability
     decides whether the pause-charged split exists at all. *)
  let rtev_on =
    config.rtev && Rtev.start ~registry ~trace:config.trace ()
  in
  let t =
    {
      config;
      params;
      registry;
      monitor;
      keyring;
      workforce;
      master;
      batcher;
      lane_counter = Atomic.make 0;
      server = None;
      stopped = false;
      stop_mu = Mutex.create ();
      serve_gc_pause =
        (if rtev_on then Some (Obs.Registry.histo registry "serve_gc_pause_ns")
         else None);
      requests_histo_mu = Mutex.create ();
      tenant_handles = [];
    }
  in
  self := Some t;
  if rtev_on then begin
    (if config.pause_budget_ms > 0.0 then begin
       Rtev.set_pause_budget_ns
         (Some (int_of_float (config.pause_budget_ms *. 1e6)));
       Assure.Monitor.add_check monitor ~name:"gc_pause_budget" (fun () ->
           let b = Rtev.budget_breaches () in
           if b > 0 then
             Some
               (Printf.sprintf "%d pause(s) over %gms budget" b
                  config.pause_budget_ms)
           else None)
     end);
    Rtev.start_poller ()
  end;
  if listen then
    t.server <-
      Some
        (Http.start_handler ~host:config.host ~workers:config.http_workers
           ~port:config.port (handler t));
  t

let port t =
  match t.server with Some s -> Http.port s | None -> t.config.port

let registry t = t.registry
let monitor t = t.monitor
let rtev_active t = Option.is_some t.serve_gc_pause
let keyring t = t.keyring
let batcher_shed t = Batcher.shed_count t.batcher
let batches t = Batcher.batches t.batcher
let requests t = Batcher.submitted t.batcher
let config t = t.config

let healthy t = Assure.Monitor.healthy t.monitor

let stop t =
  Mutex.lock t.stop_mu;
  if t.stopped then Mutex.unlock t.stop_mu
  else begin
    t.stopped <- true;
    Mutex.unlock t.stop_mu;
    (* Order matters: the HTTP drain needs the batcher alive (in-flight
       requests are blocked in submit), the batcher drain needs the
       workforce alive.  Then flush the partial drift window so the final
       /metrics state reflects everything the daemon sampled. *)
    (match t.server with
    | Some s ->
      Http.stop s;
      t.server <- None
    | None -> ());
    Batcher.shutdown t.batcher;
    if rtev_active t then begin
      if t.config.pause_budget_ms > 0.0 then Rtev.set_pause_budget_ns None;
      Rtev.stop ()
    end;
    ignore (Assure.Drift.flush (Assure.Monitor.drift t.monitor));
    Ctg_engine.Workforce.shutdown t.workforce
  end

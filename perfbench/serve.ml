(* serve-512: the signing daemon under an open-loop load.

   An in-process Daemon (n = 512, sigma = 2 at precision 128, default
   batching and monitors, HTTP and signing teams of two domains) on
   127.0.0.1, port 0.  Two tenants each send on their own keep-alive
   connection, on a fixed schedule at 50 req/s each, 100 req/s in all.
   Each request is timed from its due time, so a stall also charges the
   requests queued behind it.

   Every 200 must decode, verify under the key served by /v1/pubkey, and
   equal a one-domain re-sign of its (seed, lane, key, message), checked
   after the timed window.  A request that fails or is never sent counts
   as failed and as missing the latency limit.

   Traced: the daemon's own serve_* histograms, the network share of each
   request, the sign stage histograms, and GC pauses. *)

open Common
module F = Ctg_falcon
module Daemon = Ctg_serve.Daemon
module Client = Ctg_net.Client
module Jsonx = Ctg_obs.Jsonx

let tenants = [| "t0"; "t1" |]
let rate_per_tenant = 50.0
let reps = 2

(* Tenant keys derive from a fixed key seed per set-up repetition, not
   from the run's seed, as in sign-512. *)
let config ~seed ~rep ~rtev =
  {
    Daemon.default_config with
    n = 512;
    sigma = "2";
    precision = 128;
    tail_cut = 13;
    port = 0;
    http_workers = 2;
    sign_domains = Some 2;
    seed = Printf.sprintf "perfbench-serve-%d" seed;
    key_seed = Printf.sprintf "perfbench-key-%d" rep;
    rtev;
  }

let message ~seed ~tenant i =
  Printf.sprintf "perfbench serve-512 seed=%d tenant=%d msg=%d" seed tenant i

(* One request of the schedule and what came back. *)
type request = {
  tenant : int;
  msg : string;
  due : float;
  mutable sent : float;  (** 0 when never sent. *)
  mutable received : float;
  mutable status : int;  (** 0 on a transport failure. *)
  mutable body : string;
  mutable ok : bool;  (** Set by [check]. *)
}

(* One client: send tenant [k]'s requests due in [t_start, t_stop) on a
   keep-alive connection, each at its due time or as soon as the previous
   one returned.  Stops sending [grace] seconds after [t_stop]. *)
let client ~port ~seed ~index ~k ~t_start ~t_stop =
  let interval = 1.0 /. rate_per_tenant in
  let offset = float_of_int k *. interval /. float_of_int (Array.length tenants) in
  let path = "/v1/sign?tenant=" ^ tenants.(k) in
  let conn = ref None in
  let reqs = ref [] in
  let grace = 10.0 in
  let rec go i =
    let due = t_start +. offset +. (float_of_int i *. interval) in
    if due < t_stop then begin
      let r =
        {
          tenant = k;
          msg = message ~seed ~tenant:k (index + i);
          due;
          sent = 0.0;
          received = 0.0;
          status = 0;
          body = "";
          ok = false;
        }
      in
      reqs := r :: !reqs;
      let wait = due -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      if now () < t_stop +. grace then begin
        (try
           let c =
             match !conn with
             | Some c -> c
             | None ->
               let c = Client.connect ~timeout:5.0 ~port () in
               conn := Some c;
               c
           in
           r.sent <- now ();
           let resp = Client.request c ~meth:"POST" ~path ~body:r.msg () in
           r.received <- now ();
           r.status <- resp.Client.status;
           r.body <- resp.Client.body
         with e ->
           r.received <- now ();
           (match !conn with Some c -> (try Client.close c with _ -> ()) | None -> ());
           conn := None;
           r.body <- Printexc.to_string e)
      end;
      go (i + 1)
    end
  in
  go 0;
  (match !conn with Some c -> Client.close c | None -> ());
  List.rev !reqs

(* Both clients over one window; requests of all tenants, by due time. *)
let load ~port ~seed ~index ~seconds =
  let t_start = now () +. 0.05 in
  let t_stop = t_start +. seconds in
  let domains =
    Array.mapi
      (fun k _ ->
        Domain.spawn (fun () -> client ~port ~seed ~index ~k ~t_start ~t_stop))
      tenants
  in
  Array.to_list domains
  |> List.concat_map Domain.join
  |> List.sort (fun a b -> Float.compare a.due b.due)

let field name conv body =
  match Jsonx.parse body with
  | Ok j -> Option.bind (Jsonx.member name j) conv
  | Error _ -> None

let latency r = if r.ok then r.received -. r.due else infinity

(* The latency figure: the lower quartile of request latency from due
   time.  It carries the whole per-request path (batcher linger, HTTP,
   signing, encoding), while the upper part of the distribution follows
   stop-the-world pauses and the host's scheduling of the six domains
   more than the program: over ten 10 s windows of identical code the
   median spread 3.5 times and the mean 9 times as much as the lower
   quartile. *)
let latency_quantile = 0.25

(* ------------------------------------------------------------------ *)
(* Set-up and checks                                                   *)
(* ------------------------------------------------------------------ *)

let pubkey ~port tenant =
  let r = Client.get ~port ("/v1/pubkey?tenant=" ^ tenant) in
  if r.Client.status <> 200 then failwith ("pubkey " ^ tenant ^ ": " ^ r.Client.body);
  match field "pk" Jsonx.to_str r.Client.body with
  | None -> failwith "pubkey: no pk field"
  | Some hex -> (
    match F.Codec.decode_public_key ~n:512 (Ctg_util.Hex.decode hex) with
    | Some h -> h
    | None -> failwith "pubkey: undecodable key")

(* Start the daemon and fetch both public keys (each fetch generates the
   tenant's key). *)
let start ~seed ~rep ~rtev =
  let d = Daemon.create (config ~seed ~rep ~rtev) in
  let port = Daemon.port d in
  (d, Array.map (pubkey ~port) tenants)

let params = Daemon.params_of_n 512

(* Decode and verify every 200 under the served key, then re-sign each
   tenant's requests on one domain from their lanes and compare bytes.
   [make_base] builds the re-sign's base samplers.  Returns the minor
   words the re-signing allocated. *)
let check d pks ~make_base reqs =
  let cfg = Daemon.config d in
  let bound_sq = F.Sign.norm_bound_sq params in
  let decoded =
    List.filter_map
      (fun r ->
        if r.status <> 200 then None
        else
          match
            ( field "sig" Jsonx.to_str r.body,
              field "lane" Jsonx.to_int r.body )
          with
          | Some hex, Some lane -> (
            let bytes = Ctg_util.Hex.decode hex in
            match F.Codec.decode_signature ~params bytes with
            | Some (salt, s2)
              when F.Verify.verify ~params ~h:pks.(r.tenant) ~bound_sq
                     ~msg:(Bytes.of_string r.msg) ~salt ~s2 ->
              Some (r, lane, bytes)
            | _ -> None)
          | _ -> None)
      reqs
  in
  let alloc = ref 0.0 in
  Array.iteri
    (fun k tenant ->
      let mine = List.filter (fun (r, _, _) -> r.tenant = k) decoded |> Array.of_list in
      let kp = Ctg_serve.Keyring.lookup (Daemon.keyring d) ~tenant in
      if kp.F.Keygen.h = pks.(k) && Array.length mine > 0 then begin
        let w0 = minor_words () in
        let sigs =
          F.Sign.sign_many ~domains:1 ~check:cfg.Daemon.check
            ~lanes:(Array.map (fun (_, lane, _) -> lane) mine)
            kp ~make_base ~seed:cfg.Daemon.seed
            ~msgs:(Array.map (fun (r, _, _) -> Bytes.of_string r.msg) mine)
        in
        alloc := !alloc +. (minor_words () -. w0);
        Array.iteri
          (fun i (r, _, bytes) ->
            let s = sigs.(i) in
            r.ok <- Bytes.equal bytes (F.Codec.encode_signature ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2))
          mine
      end)
    tenants;
  !alloc

type summary = {
  sent : int;
  succeeded : int;
  failed : int;
  p50_ms : float;
  p99_ms : float;
  p99_samples : int;  (** Requests beyond the p99. *)
  late_ms_max : float;
  ops_per_s : float;  (** Succeeded per second, first due to last reply. *)
}

let summarize reqs =
  let n = List.length reqs in
  let lat = Array.of_list (List.map latency reqs) in
  let succeeded = List.length (List.filter (fun r -> r.ok) reqs) in
  let late =
    List.fold_left
      (fun a (r : request) -> if r.sent > 0.0 then Float.max a (r.sent -. r.due) else a)
      0.0 reqs
  in
  {
    sent = n;
    succeeded;
    failed = n - succeeded;
    p50_ms = quantile lat 0.5 *. 1e3;
    p99_ms = quantile lat 0.99 *. 1e3;
    p99_samples = n - int_of_float (Float.ceil (0.99 *. float_of_int n));
    late_ms_max = late *. 1e3;
    ops_per_s =
      (let first = List.fold_left (fun a r -> Float.min a r.due) infinity reqs in
       let last = List.fold_left (fun a r -> Float.max a r.received) 0.0 reqs in
       ratio (float_of_int succeeded) (last -. first));
  }

let client_metrics s =
  [
    m "client.sent" "count" (float_of_int s.sent);
    m "client.succeeded" "count" (float_of_int s.succeeded);
    m "client.failed" "count" (float_of_int s.failed);
    m "client.late_ms_max" "ms" s.late_ms_max;
    m "client.p50_ms" "ms" s.p50_ms;
    m "client.p99_ms" "ms" s.p99_ms;
    m "client.p99_samples" "count" (float_of_int s.p99_samples);
  ]

let print_client s =
  info "requests: %d sent, %d succeeded, %d failed; p50 %.3f ms, p99 %.3f ms (%d beyond); \
        generator late by at most %.3f ms"
    s.sent s.succeeded s.failed s.p50_ms s.p99_ms s.p99_samples s.late_ms_max

let base_of d () =
  let master =
    let c = Daemon.config d in
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma:c.Daemon.sigma
      ~precision:c.Daemon.precision ~tail_cut:c.Daemon.tail_cut ()
  in
  F.Base_sampler.of_instance
    (Ctg_samplers.Sampler_sig.of_bitsliced (Ctgauss.Sampler.clone master))

let untraced (args : args) =
  let (d, pks), setup_s =
    repeated_setup ~reps ~dispose:(fun (d, _) -> Daemon.stop d) (fun rep ->
        start ~seed:args.seed ~rep ~rtev:false)
  in
  let port = Daemon.port d in
  let warm = load ~port ~seed:args.seed ~index:0 ~seconds:warmup_s in
  let reqs =
    load ~port ~seed:args.seed ~index:(List.length warm) ~seconds:args.seconds
  in
  Daemon.stop d;
  ignore (check d pks ~make_base:(base_of d) (warm @ reqs) : float);
  let s = summarize reqs and sw = summarize warm in
  print_client s;
  {
    correct = s.failed + sw.failed = 0 && s.sent > 0;
    attempted = s.sent + sw.sent;
    failed = s.failed + sw.failed;
    metrics =
      end_to_end ~setup_s ~attempted:(s.sent + sw.sent) ~failed:(s.failed + sw.failed)
        ~ops_per_s:s.ops_per_s
        ~latency_s:(quantile (Array.of_list (List.map latency reqs)) latency_quantile)
        (List.map latency reqs);
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let traced (args : args) =
  let t0 = now () in
  let master =
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma:"2" ~precision:128
      ~tail_cut:13 ()
  in
  let compile_s = now () -. t0 in
  let d = Daemon.create (config ~seed:args.seed ~rep:0 ~rtev:true) in
  let keygen_s =
    Array.map
      (fun tenant ->
        let t0 = now () in
        ignore (Ctg_serve.Keyring.lookup (Daemon.keyring d) ~tenant : F.Keygen.keypair);
        now () -. t0)
      tenants
  in
  let port = Daemon.port d in
  let pks = Array.map (pubkey ~port) tenants in
  let reg = Daemon.registry d in
  Ctg_obs.Registry.reset reg;
  let stages0 = Sign.stage_sums () in
  let index = ref 0 in
  let window = args.seconds /. 8.0 in
  let _, kernel = Fill.kernel_probe master ~seed:args.seed in
  let ((untraced, traced), gc), host =
    with_host_marker (fun () ->
        gc_window ~own:false (fun () ->
            alternate ~pairs:4 (fun _ ->
                let reqs = load ~port ~seed:args.seed ~index:!index ~seconds:window in
                index := !index + List.length reqs;
                reqs)))
  in
  finish_trace args;
  let stages = List.map2 (fun (k, a) (_, b) -> (k, b - a)) stages0 (Sign.stage_sums ()) in
  let histo name = Ctg_obs.Registry.histo_summary (Ctg_obs.Registry.histo reg name) in
  let queue_wait = histo "serve_queue_wait_ns" and service = histo "serve_service_ns" in
  let batch_mean = (histo "serve_batch_size").Ctg_obs.Histo.mean in
  let shed = Ctg_obs.Registry.value (Ctg_obs.Registry.counter reg "serve_shed_total") in
  Daemon.stop d;
  let untraced = List.concat untraced and traced = List.concat traced in
  let all = untraced @ traced in
  (* The re-sign check doubles as the base-sampler probe: one domain, the
     same keys, lanes and messages, a timed base sampler. *)
  let base_ns = Atomic.make 0 in
  let clock_ns = Sign.clock_cost_ns () in
  let alloc = check d pks ~make_base:(Sign.timed_base_of master base_ns) all in
  let two_dom =
    Sign.two_domain_ok_frac master
      (Ctg_serve.Keyring.lookup (Daemon.keyring d) ~tenant:tenants.(0))
      ~seed:args.seed
  in
  let resigned = List.filter (fun r -> r.status = 200) all in
  let served = float_of_int (List.length resigned) in
  let attempts =
    List.fold_left
      (fun a r -> a + Option.value ~default:0 (field "attempts" Jsonx.to_int r.body))
      0 resigned
  in
  let alloc = alloc /. served in
  let leaf_draws = float_of_int (attempts * 2 * params.F.Params.n) in
  let base_us = (float_of_int (Atomic.get base_ns) -. (leaf_draws *. clock_ns)) /. 1e3 /. served in
  let stage name = float_of_int (List.assoc name stages) /. 1e3 /. served in
  (* Network share: client round trip minus the daemon's own latency. *)
  let net =
    List.filter_map
      (fun r ->
        Option.map
          (fun ns -> r.received -. r.sent -. (float_of_int ns /. 1e9))
          (field "latency_ns" Jsonx.to_int r.body))
      resigned
    |> Array.of_list
  in
  let su = summarize untraced and st = summarize traced in
  print_client su;
  let ok = List.filter (fun r -> r.ok) untraced |> Array.of_list in
  let e2e_ms = mean (Array.map latency ok) *. 1e3 in
  let layers_ms =
    (mean net *. 1e3) +. ((queue_wait.Ctg_obs.Histo.mean +. service.Ctg_obs.Histo.mean) /. 1e6)
  in
  let s = summarize all in
  {
    correct = s.failed = 0 && s.sent > 0;
    attempted = max 1 s.sent;
    failed = s.failed;
    metrics =
      per_layer
        ([
           host;
           m "engine.compile_s" "s" compile_s;
           m "falcon.keygen_s" "s" (mean keygen_s);
           m "falcon.hash_to_point_us" "us" (stage "hash_to_point");
           m "falcon.ff_sampling_us" "us" (stage "ff_sampling" -. base_us);
           m "falcon.basis_fft_us" "us" (stage "ntt");
           m "falcon.verify_after_sign_us" "us" (stage "verify_after_sign");
           m "falcon.base_sampler_us" "us" base_us;
           m "falcon.attempts_per_sig" "count" (ratio (float_of_int attempts) served);
           m "falcon.alloc_words_per_sig" "words" alloc;
           m "falcon.sign_many_2dom_ok_frac" "ratio" two_dom;
           m "serve.queue_wait_ms_p50" "ms" (float_of_int queue_wait.Ctg_obs.Histo.p50 /. 1e6);
           m "serve.service_ms_p50" "ms" (float_of_int service.Ctg_obs.Histo.p50 /. 1e6);
           m "serve.batch_mean" "count" batch_mean;
           m "serve.shed" "count" (float_of_int shed);
           m "net.overhead_ms_p50" "ms" (median net *. 1e3);
           m "trace.overhead_frac" "ratio" (ratio st.p50_ms su.p50_ms -. 1.0);
           m "layers.residual_frac" "ratio" (1.0 -. ratio layers_ms e2e_ms);
         ]
        @ kernel @ client_metrics su @ gc);
  }

let run (args : args) = if args.trace then traced args else untraced args

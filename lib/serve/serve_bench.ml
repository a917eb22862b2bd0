(* The serving SLO gate: boot a real daemon on an ephemeral port, drive it
   with concurrent HTTP clients, and compare the client-observed tail
   latency against a direct sign_many baseline measured in the same
   process.  Gating on the *ratio* (plus an absolute floor for CI-runner
   noise) keeps the check meaningful across hosts: the daemon may spend a
   bounded multiple of the raw signing cost on queueing, coalescing and
   HTTP, wherever it runs. *)

open Ctg_sync.Shim
module Obs = Ctg_obs
module Jsonx = Obs.Jsonx
module F = Ctg_falcon
module Sig = Ctg_samplers.Sampler_sig
module Client = Ctg_net.Client

type entry = {
  n : int;
  sigma : string;
  tenants : int;
  requests : int;
  batches : int;
  mean_batch : float;
  shed : int;
  direct_ns : float;  (** Per-signature cost of a direct sign_many run. *)
  p50_ns : float;  (** Client-observed, connect-to-verdict per request. *)
  p99_ns : float;
  slo_ns : float;  (** The bound actually applied to [p99_ns]. *)
  healthy : bool;
}

let slo_mult = 25.0
let floor_ns = 250e6

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

(* Direct per-signature baseline: the same keypair, parameters and
   verify-after-sign work the daemon does, without HTTP or batching. *)
let direct_baseline ~params ~sigma ~precision ~tail_cut ~msgs () =
  let master =
    Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma ~precision
      ~tail_cut ()
  in
  let rng =
    Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed "serve-bench-key")
  in
  let kp = F.Keygen.generate params rng in
  let make_base () =
    F.Base_sampler.of_instance (Sig.of_bitsliced (Ctgauss.Sampler.clone master))
  in
  let run () =
    F.Sign.sign_many ~check:true kp ~make_base ~seed:"serve-bench" ~msgs
  in
  ignore (run () : F.Sign.signature array);
  let t0 = Obs.Clock.now_ns () in
  let sigs = run () in
  let t1 = Obs.Clock.now_ns () in
  ignore (sigs : F.Sign.signature array);
  float_of_int (t1 - t0) /. float_of_int (Array.length msgs)

let load d ~tenants ~per_tenant =
  let port = Daemon.port d in
  let workers =
    Array.map
      (fun tenant ->
        Domain.spawn (fun () ->
            let c = Client.connect ~port () in
            let lat = Array.make per_tenant 0.0 in
            for i = 0 to per_tenant - 1 do
              let t0 = Obs.Clock.now_ns () in
              let r =
                Client.request c ~meth:"POST"
                  ~path:("/v1/sign?tenant=" ^ tenant)
                  ~body:(Printf.sprintf "%s-%d" tenant i)
                  ()
              in
              let t1 = Obs.Clock.now_ns () in
              if r.Client.status <> 200 then
                failwith
                  (Printf.sprintf "sign -> %d: %s" r.Client.status r.Client.body);
              lat.(i) <- float_of_int (t1 - t0)
            done;
            Client.close c;
            lat))
      tenants
  in
  (* Join every worker before re-raising the first failure. *)
  let joined =
    Array.map
      (fun w -> match Domain.join w with l -> Ok l | exception e -> Error e)
      workers
  in
  Array.concat
    (Array.to_list (Array.map (function Ok l -> l | Error e -> raise e) joined))

let measure ?(n = 16) ?(sigma = "2") ?(precision = 16) ?(tail_cut = 13)
    ?(tenants = 3) ?(per_tenant = 16) () =
  let params = Daemon.params_of_n n in
  let baseline_msgs =
    Array.init 8 (fun i -> Bytes.of_string (Printf.sprintf "baseline-%d" i))
  in
  let direct_ns =
    direct_baseline ~params ~sigma ~precision ~tail_cut ~msgs:baseline_msgs ()
  in
  let config =
    {
      Daemon.default_config with
      n;
      sigma;
      precision;
      tail_cut;
      port = 0;
      max_batch = 8;
      queue_capacity = 64;
    }
  in
  let d = Daemon.create config in
  let latencies, requests, batches, shed, healthy =
    Fun.protect
      ~finally:(fun () -> Daemon.stop d)
      (fun () ->
        let names = Array.init tenants (Printf.sprintf "bench-t%d") in
        let lat = load d ~tenants:names ~per_tenant in
        (lat, Daemon.requests d, Daemon.batches d, Daemon.batcher_shed d,
         Daemon.healthy d))
  in
  Array.sort compare latencies;
  let mean_batch =
    if batches = 0 then 0.0 else float_of_int requests /. float_of_int batches
  in
  {
    n;
    sigma;
    tenants;
    requests;
    batches;
    mean_batch;
    shed;
    direct_ns;
    p50_ns = percentile latencies 0.50;
    p99_ns = percentile latencies 0.99;
    slo_ns = Float.max (slo_mult *. direct_ns) floor_ns;
    healthy;
  }

let ok e =
  e.p99_ns <= e.slo_ns && e.mean_batch > 1.0 && e.shed = 0 && e.healthy
  && e.requests > 0

let entry_json e =
  Jsonx.Obj
    [
      ("n", Num (float_of_int e.n));
      ("sigma", Str e.sigma);
      ("tenants", Num (float_of_int e.tenants));
      ("requests", Num (float_of_int e.requests));
      ("batches", Num (float_of_int e.batches));
      ("mean_batch", Num e.mean_batch);
      ("shed", Num (float_of_int e.shed));
      ("direct_ns", Num e.direct_ns);
      ("p50_ns", Num e.p50_ns);
      ("p99_ns", Num e.p99_ns);
      ("slo_ns", Num e.slo_ns);
      ("healthy", Bool e.healthy);
    ]

let to_json entries =
  Jsonx.Obj
    [
      ("bench", Str "serve");
      ("slo_mult", Num slo_mult);
      ("floor_ns", Num floor_ns);
      ("entries", List (List.map entry_json entries));
    ]

let save path entries =
  let oc = open_out path in
  output_string oc (Jsonx.pretty (to_json entries));
  output_char oc '\n';
  close_out oc

let pp_entry fmt e =
  Format.fprintf fmt
    "n=%-4d sigma=%-4s %d tenants x %d req: direct=%8.0f ns/sig  p50=%8.0f ns  \
     p99=%8.0f ns (slo %8.0f)  batch mean=%.2f  shed=%d  healthy=%b"
    e.n e.sigma e.tenants
    (if e.tenants = 0 then 0 else e.requests / e.tenants)
    e.direct_ns e.p50_ns e.p99_ns e.slo_ns e.mean_batch e.shed e.healthy

module Bs = Ctg_prng.Bitstream
module Clock = Ctg_obs.Clock
module Trace = Ctg_obs.Trace
module Ctmon = Ctg_obs.Ctmon

module Workq = Workforce.Workq

exception Kill_worker = Workforce.Kill_worker

exception Chunk_failed = Workforce.Chunk_failed

exception Stalled = Workforce.Stalled

(* One team job: a run of whole chunks of a call.  Chunk c of the job is
   chunk [first + c] of the call, draws from lane [lane_base + c] and
   lands at offset [c × chunk_samples] of [out]. *)
type job = {
  n : int;  (* samples in this job *)
  first : int;  (* index within the call of the job's chunk 0 *)
  lane_base : int;
  wq : Workq.t;  (* cursor, orphans, completion and failure accounting *)
  out : int array;
  flow : int option;  (* trace flow id: each chunk span emits a flow step *)
}

(* Degraded pools serve from the constant-time linear-search CDT instead of
   the compiled bitsliced program — the graceful-degradation path taken
   when the sampler fails its load-time KAT. *)
type mode = Bitsliced | Degraded of Ctg_samplers.Sampler_sig.instance

type fault_hook = chunk:int -> lane:int -> attempt:int -> unit

type chunk_observer = chunk:int -> lane:int -> int array -> unit

type t = {
  sampler : Ctgauss.Sampler.t;  (* master; workers use private clones *)
  mode : mode;
  gate_count : int;
  rng_of_lane : int -> Bs.t;
  chunk_samples : int;
  metrics : Metrics.t;
  ctmon : Ctmon.t;
  team : Workforce.t;
  clones : Ctgauss.Sampler.t option array;
      (* per worker index, made and used only by that worker's domain *)
  mutable fault_hook : fault_hook option;
  mutable chunk_observers : chunk_observer list;
  mutable next_lane : int;
}

let domains t = Workforce.domains t.team
let metrics t = t.metrics
let ctmon t = t.ctmon
let chunk_samples t = t.chunk_samples
let degraded t = match t.mode with Degraded _ -> true | Bitsliced -> false
let set_fault_hook t hook = t.fault_hook <- hook

let add_chunk_observer t f = t.chunk_observers <- t.chunk_observers @ [ f ]

let batches_of len = (len + Ctgauss.Bitslice.lanes - 1) / Ctgauss.Bitslice.lanes

(* The bitsliced chunk body, shared with the [bench obs] overhead gate so
   it times the production loop.  Batches go straight into the
   output slice.  CT check: every batch of a constant-time program draws
   the same number of bits, so each batch is classified with plain field
   reads — one batch's end readings are the next one's start readings,
   and the learned expectation never changes once set.  Fallback batches
   (the sampler's declared escape) never teach the monitor: at low
   precision the first batch can take the fallback path, and learning its
   data-dependent bit count would flag every normal batch.  The registry
   is touched once per chunk, not per batch.  Full batches call
   [batch_signed_into] directly: [Sampler.fill]'s range check and
   [Stdlib.min] (a polymorphic C compare) would cost more per batch than
   the classification itself. *)
let fill_chunk ~metrics ~ctmon ~domain ~gate_count sampler rng out ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length out - len then
    invalid_arg "Pool.fill_chunk";
  let t_fill = Clock.now_ns () in
  let lanes = Ctgauss.Bitslice.lanes in
  let bits0 = Bs.bits_consumed rng and work0 = Bs.prng_work rng in
  let resamples0 = Ctgauss.Sampler.resamples sampler in
  let bits = ref bits0 and res = ref resamples0 in
  let expected = ref 0 and deviations = ref 0 and fallbacks = ref 0 in
  let stop = pos + len in
  let i = ref pos in
  while !i < stop do
    let rest = stop - !i in
    if rest >= lanes then Ctgauss.Sampler.batch_signed_into sampler rng out !i
    else Ctgauss.Sampler.fill sampler rng out ~pos:!i ~len:rest;
    let bits1 = Bs.bits_consumed rng in
    let res1 = Ctgauss.Sampler.resamples sampler in
    let dbits = bits1 - !bits in
    if res1 > !res then incr fallbacks
    else begin
      if !expected = 0 then expected := Ctmon.learn ctmon dbits;
      if dbits <> !expected then incr deviations
    end;
    bits := bits1;
    res := res1;
    i := !i + lanes
  done;
  let batches = batches_of len and bits = !bits - bits0 in
  Metrics.observe_chunk_service metrics (Clock.now_ns () - t_fill);
  Metrics.record metrics ~domain ~samples:len ~batches ~bits
    ~work:(Bs.prng_work rng - work0) ~gates:(batches * gate_count);
  Metrics.add_fallback metrics (!res - resamples0);
  Ctmon.record_chunk ctmon ~batches ~bits ~samples:len ~deviations:!deviations
    ~fallbacks:!fallbacks

(* Fill [count] samples of chunk [c] from the chunk's own forked lane.
   Everything here depends only on (seed, lane, sampler program, count):
   no worker or domain-count input, which is the determinism guarantee —
   and which is also why a retried or reassigned chunk reproduces its
   output exactly. *)
let run_chunk t ~worker (j : job) c =
  let chunk = j.first + c and lane = j.lane_base + c in
  let rng = t.rng_of_lane lane in
  let offset = c * t.chunk_samples in
  let count = min t.chunk_samples (j.n - offset) in
  let out = j.out in
  (match t.mode with
  | Degraded inst ->
    let t_fill = Clock.now_ns () in
    (* One scalar CT-CDT draw per sample.  Every "batch" is one declared
       fallback, so the monitor accounts the whole chunk on the fallback
       side and its learned bitsliced expectation is never consulted or
       taught. *)
    Trace.with_span "chunk" ~cat:"engine"
      ~args:(fun () ->
        [
          ("chunk", string_of_int chunk);
          ("lane", string_of_int lane);
          ("samples", string_of_int count);
          ("mode", "degraded-cdt");
        ])
      (fun () ->
        (match j.flow with
        | Some id -> Trace.flow_step ~id "job"
        | None -> ());
        for i = 0 to count - 1 do
          out.(offset + i) <- Ctg_samplers.Sampler_sig.sample_signed inst rng
        done);
    Metrics.observe_chunk_service t.metrics (Clock.now_ns () - t_fill);
    Metrics.record t.metrics ~domain:worker ~samples:count ~batches:count
      ~bits:(Bs.bits_consumed rng) ~work:(Bs.prng_work rng) ~gates:0;
    Ctmon.record_chunk t.ctmon ~batches:count ~bits:(Bs.bits_consumed rng)
      ~samples:count ~deviations:0 ~fallbacks:count
  | Bitsliced ->
    (* Clones are only needed by the bitsliced path; a degraded pool never
       touches the (failed) compiled program again. *)
    let clone =
      match t.clones.(worker) with
      | Some s -> s
      | None ->
        let s = Ctgauss.Sampler.clone t.sampler in
        t.clones.(worker) <- Some s;
        s
    in
    let fill () =
      fill_chunk ~metrics:t.metrics ~ctmon:t.ctmon ~domain:worker
        ~gate_count:t.gate_count clone rng out ~pos:offset ~len:count
    in
    if not (Trace.is_enabled ()) then fill ()
    else
      Trace.with_span "chunk" ~cat:"engine"
        ~args:(fun () ->
          [
            ("chunk", string_of_int chunk);
            ("lane", string_of_int lane);
            ("samples", string_of_int count);
            ("batches", string_of_int (batches_of count));
          ])
        (fun () ->
          (match j.flow with
          | Some id -> Trace.flow_step ~id "job"
          | None -> ());
          fill ()));
  (* Observers see each completed chunk exactly once (a retried chunk only
     reaches this point on its successful attempt), on the worker domain
     that filled it. *)
  match t.chunk_observers with
  | [] -> ()
  | observers ->
    let view = Array.sub out offset count in
    List.iter (fun f -> f ~chunk ~lane view) observers

(* Bounded in-place retry with exponential backoff.  A transient chunk
   failure (entropy health trip, injected fault) is retried on the same
   worker — the chunk's lane and offset are functions of its index, so the
   retry recomputes the identical output.  [Kill_worker] is not a chunk
   error: it escapes to the team, which orphans the chunk for another
   domain.  Exhausted retries raise [Chunk_failed], which fails the whole
   job so the error surfaces on the caller instead of hanging it. *)
let max_chunk_retries = 2

let rec attempt_chunk t ~worker (j : job) c attempt =
  match
    (match t.fault_hook with
    | Some hook -> hook ~chunk:(j.first + c) ~lane:(j.lane_base + c) ~attempt
    | None -> ());
    run_chunk t ~worker j c
  with
  | () -> ()
  | exception Kill_worker -> raise Kill_worker
  | exception e ->
    (match e with
    | Ctg_prng.Health.Entropy_failure _ -> Metrics.add_health_failure t.metrics
    | _ -> ());
    if attempt < max_chunk_retries && not (Workq.aborted j.wq) then begin
      Metrics.add_chunk_retry t.metrics;
      Unix.sleepf (0.001 *. float_of_int (1 lsl attempt));
      attempt_chunk t ~worker j c (attempt + 1)
    end
    else raise (Chunk_failed { chunk = c; attempts = attempt + 1; error = e })

let create ?domains ?(backend = Stream_fork.Chacha) ?(chunk_batches = 16)
    ?rng_of_lane ?(self_test = true) ?stall_timeout ~seed sampler =
  if chunk_batches < 1 then
    invalid_arg "Pool.create: chunk_batches must be >= 1";
  let mode =
    if not self_test then Bitsliced
    else
      match Selftest.run sampler with
      | Ok () -> Bitsliced
      | Error _ ->
        (* The compiled program disagrees with the reference walk — a
           corrupted gate table.  Keep serving, but from the CT
           linear-search CDT built from the (still trusted) probability
           matrix.  Slower, still constant-time, still correct. *)
        Degraded
          (Ctg_samplers.Cdt_samplers.linear_ct
             (Ctg_samplers.Cdt_table.of_matrix (Ctgauss.Sampler.matrix sampler)))
  in
  let labels =
    [
      ("sigma", Ctgauss.Sampler.sigma sampler);
      ( "sampler",
        match mode with
        | Bitsliced -> "bitsliced"
        | Degraded _ -> "cdt-linear-ct-degraded" );
    ]
  in
  let team = Workforce.create ?domains ?stall_timeout () in
  let ndomains = Workforce.domains team in
  let metrics = Metrics.create ~domains:ndomains ~labels () in
  (match mode with
  | Degraded _ -> Metrics.set_degraded metrics true
  | Bitsliced -> ());
  let rng_of_lane =
    match rng_of_lane with
    | Some f -> f
    | None -> fun lane -> Stream_fork.bitstream ~backend ~seed ~lane ()
  in
  {
    sampler;
    mode;
    gate_count = Ctgauss.Sampler.gate_count sampler;
    rng_of_lane;
    chunk_samples = chunk_batches * Ctgauss.Bitslice.lanes;
    metrics;
    ctmon =
      Ctmon.create ~registry:(Metrics.registry metrics) ~labels
        ~totals:(Metrics.totals metrics) ();
    team;
    clones = Array.make ndomains None;
    fault_hook = None;
    chunk_observers = [];
    next_lane = 0;
  }

let chunks_of t n = (n + t.chunk_samples - 1) / t.chunk_samples

(* Claim the lanes of an [n]-sample call: chunk k of the call draws from
   lane [base + k].  Lanes are consumed per call, whether or not it
   completes, so successive calls draw fresh randomness while staying
   reproducible as a sequence. *)
let claim_lanes t ~n =
  if n < 0 then invalid_arg "Pool: n must be >= 0";
  if Workforce.stopped t.team then invalid_arg "Pool: shut down";
  let base = t.next_lane in
  t.next_lane <- base + chunks_of t n;
  base

(* Fill chunks [first, first + ⌈n / chunk_samples⌉) of the call whose
   lanes start at [base] into [out] from offset 0, on the team, and wait
   for them. *)
let run_job ?flow t ~base ~first ~n out =
  let j =
    {
      n;
      first;
      lane_base = base + first;
      wq = Workq.create ~total:(chunks_of t n) ~stamp:(Clock.now_ns ());
      out;
      flow;
    }
  in
  match
    Workforce.run_workq t.team j.wq
      ~respawned:(fun () -> Metrics.add_worker_respawn t.metrics)
      (fun ~worker c -> attempt_chunk t ~worker j c 0)
  with
  | () -> ()
  | exception Chunk_failed { chunk; attempts; error } ->
    (* Name the chunk by its index within the call, as the hooks do. *)
    raise (Chunk_failed { chunk = first + chunk; attempts; error })

let batch_parallel ?flow t ~n =
  let base = claim_lanes t ~n in
  let out = Array.make n 0 in
  run_job ?flow t ~base ~first:0 ~n out;
  out

(* Windows of [2 × domains] whole chunks use the lanes and offsets of one
   job over [n], so the stream equals [batch_parallel ~n].  No job is in
   flight while [f] runs, so an exception from [f] simply propagates. *)
let iter_batches ?flow t ~n f =
  let base = claim_lanes t ~n in
  let per_window = 2 * domains t in
  let window = Array.make (min n (per_window * t.chunk_samples)) 0 in
  let rec go first =
    let pos = first * t.chunk_samples in
    if pos < n then begin
      let len = min (Array.length window) (n - pos) in
      run_job ?flow t ~base ~first ~n:len window;
      for c = 0 to chunks_of t len - 1 do
        let off = c * t.chunk_samples in
        f (Array.sub window off (min t.chunk_samples (len - off)))
      done;
      go (first + per_window)
    end
  in
  go 0

let shutdown t = Workforce.shutdown t.team

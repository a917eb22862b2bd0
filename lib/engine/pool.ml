open Ctg_sync.Shim
module Bs = Ctg_prng.Bitstream
module Clock = Ctg_obs.Clock
module Trace = Ctg_obs.Trace
module Ctmon = Ctg_obs.Ctmon

module Workq = Workforce.Workq

exception Kill_worker = Workforce.Kill_worker

exception Chunk_failed = Workforce.Chunk_failed

exception Stalled = Workforce.Stalled

(* A bounded chunk queue for the streaming consumer.  Workers push
   completed chunks and block when [capacity] are in flight; the consumer
   pops, reorders to chunk-index order and hands them to the callback.
   The reorder buffer stays small by construction: chunks are claimed in
   increasing order, so at most [domains] chunks can be finished out of
   order at any moment.  Both waits are abortable: a failed job must not
   leave a producer blocked on a full queue or the consumer blocked on an
   empty one, so the loops re-check [should_abort] on every wakeup and the
   aborting thread (plus the watchdog, when one runs) broadcasts [q_cond].

   A standalone module (not inlined in the pool) so the ctg_race model
   checker can drive exactly this code in a bounded harness. *)
module Chunkq = struct
  type 'a t = {
    q_mutex : Mutex.t;
    q_cond : Condition.t;
    items : 'a Queue.t;
    capacity : int;
  }

  let create ~capacity =
    {
      q_mutex = Mutex.create ();
      q_cond = Condition.create ();
      items = Queue.create ();
      capacity;
    }

  let push q ~should_abort item =
    Mutex.lock q.q_mutex;
    while Queue.length q.items >= q.capacity && not (should_abort ()) do
      Condition.wait q.q_cond q.q_mutex
    done;
    if not (should_abort ()) then Queue.add item q.items;
    Condition.broadcast q.q_cond;
    Mutex.unlock q.q_mutex

  let pop q ~should_abort =
    Mutex.lock q.q_mutex;
    while Queue.is_empty q.items && not (should_abort ()) do
      Condition.wait q.q_cond q.q_mutex
    done;
    let item =
      if Queue.is_empty q.items then None else Some (Queue.take q.items)
    in
    Condition.broadcast q.q_cond;
    Mutex.unlock q.q_mutex;
    item

  let wake q =
    Mutex.lock q.q_mutex;
    Condition.broadcast q.q_cond;
    Mutex.unlock q.q_mutex
end

type sink = Array_sink of int array | Queue_sink of (int * int array) Chunkq.t

type job = {
  n : int;  (* total samples requested *)
  lane_base : int;  (* chunk c draws from Stream_fork lane lane_base + c *)
  wq : Workq.t;  (* cursor, orphans, completion and failure accounting *)
  sink : sink;
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

let wake_sink (j : job) =
  match j.sink with Queue_sink q -> Chunkq.wake q | Array_sink _ -> ()

(* Record the first permanent error and wake everyone: the caller (waiting
   on the workq cond) and any producer/consumer blocked on the chunk
   queue. *)
let abort_job (j : job) err =
  Workq.fail j.wq err;
  wake_sink j

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
  let lane = j.lane_base + c in
  let rng = t.rng_of_lane lane in
  let offset = c * t.chunk_samples in
  let count = min t.chunk_samples (j.n - offset) in
  let out, out_pos =
    match j.sink with
    | Array_sink a -> (a, offset)
    | Queue_sink _ -> (Array.make count 0, 0)
  in
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
          ("chunk", string_of_int c);
          ("lane", string_of_int lane);
          ("samples", string_of_int count);
          ("mode", "degraded-cdt");
        ])
      (fun () ->
        (match j.flow with
        | Some id -> Trace.flow_step ~id "job"
        | None -> ());
        for i = 0 to count - 1 do
          out.(out_pos + i) <- Ctg_samplers.Sampler_sig.sample_signed inst rng
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
        ~gate_count:t.gate_count clone rng out ~pos:out_pos ~len:count
    in
    if not (Trace.is_enabled ()) then fill ()
    else
      Trace.with_span "chunk" ~cat:"engine"
        ~args:(fun () ->
          [
            ("chunk", string_of_int c);
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
  (match t.chunk_observers with
  | [] -> ()
  | observers ->
    let view =
      match j.sink with
      | Array_sink a -> Array.sub a offset count
      | Queue_sink _ -> out
    in
    List.iter (fun f -> f ~chunk:c ~lane view) observers);
  match j.sink with
  | Array_sink _ -> ()
  | Queue_sink q ->
    let t_q = Clock.now_ns () in
    Chunkq.push q ~should_abort:(fun () -> Workq.aborted j.wq) (c, out);
    Metrics.observe_queue_wait t.metrics (Clock.now_ns () - t_q)

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
    | Some hook -> hook ~chunk:c ~lane:(j.lane_base + c) ~attempt
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

(* Publish a job to the team; returns it with the lane range claimed and
   the team's handle on it. *)
let submit ?flow t ~n ~make_sink =
  if n < 0 then invalid_arg "Pool: n must be >= 0";
  if Workforce.stopped t.team then invalid_arg "Pool: shut down";
  let total_chunks = (n + t.chunk_samples - 1) / t.chunk_samples in
  let j =
    {
      n;
      lane_base = t.next_lane;
      wq = Workq.create ~total:total_chunks ~stamp:(Clock.now_ns ());
      sink = make_sink ();
      flow;
    }
  in
  let task =
    Workforce.submit t.team j.wq
      ~wake:(fun () -> wake_sink j)
      ~respawned:(fun () -> Metrics.add_worker_respawn t.metrics)
      (fun ~worker c -> attempt_chunk t ~worker j c 0)
  in
  (* Lanes are consumed per call, so successive jobs draw fresh
     randomness while staying reproducible as a sequence. *)
  t.next_lane <- t.next_lane + total_chunks;
  (j, task)

let batch_parallel ?flow t ~n =
  let out = ref [||] in
  let _, task =
    submit ?flow t ~n ~make_sink:(fun () ->
        out := Array.make n 0;
        Array_sink !out)
  in
  Workforce.await task;
  !out

let iter_batches ?flow t ~n f =
  let j, task =
    submit ?flow t ~n ~make_sink:(fun () ->
        Queue_sink (Chunkq.create ~capacity:(2 * domains t)))
  in
  (try
     match j.sink with
     | Array_sink _ -> assert false
     | Queue_sink q ->
       (* Deliver in chunk order so the consumed stream equals the
          batch_parallel array; the pending table holds early finishers.
          The pop is abortable: a failed or stalled job unblocks the
          consumer here, and [Workforce.await] below re-raises its
          error. *)
       let should_abort () = Workq.aborted j.wq || Workforce.stall task <> None in
       let pending = Hashtbl.create 16 in
       let next = ref 0 in
       (try
          while !next < Workq.total j.wq do
            match Hashtbl.find_opt pending !next with
            | Some chunk ->
              Hashtbl.remove pending !next;
              incr next;
              f chunk
            | None -> (
              match Chunkq.pop q ~should_abort with
              | None ->
                if not (Workq.aborted j.wq) then
                  Option.iter (abort_job j) (Workforce.stall task);
                raise Exit
              | Some (c, chunk) ->
                if c = !next then begin
                  incr next;
                  f chunk
                end
                else Hashtbl.replace pending c chunk)
          done
        with Exit -> ())
   with e ->
     (* The consumer callback itself raised: fail the job so workers
        unblock, then fall through to the await, which re-raises. *)
     abort_job j e);
  Workforce.await task

let shutdown t = Workforce.shutdown t.team

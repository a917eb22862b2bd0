open Ctg_sync.Shim
module Bs = Ctg_prng.Bitstream
module Clock = Ctg_obs.Clock
module Trace = Ctg_obs.Trace
module Ctmon = Ctg_obs.Ctmon

exception Kill_worker

exception Chunk_failed of { chunk : int; attempts : int; error : exn }

exception Stalled of { waited_ns : int }

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

(* The per-job work-accounting core, extracted so the model checker can
   verify the exactly-once protocol (cursor + orphan re-queue + first
   failure wins + completion wakeup) in isolation from RNG and sampler
   machinery.  The pool's lock hierarchy is [t.mutex] -> [wq mutex]:
   Workq operations never take a pool lock. *)
module Workq = struct
  type t = {
    total : int;
    cursor : int Atomic.t;  (* next unclaimed chunk *)
    done_ : int Atomic.t;  (* chunks completed *)
    aborted : bool Atomic.t;
    last_progress : int Atomic.t;  (* caller-supplied stamp *)
    mutex : Mutex.t;  (* guards orphans + failure + the wait below *)
    cond : Condition.t;  (* the submitting caller waits for done/failed *)
    orphans : int Queue.t;  (* chunks claimed by crashed workers *)
    mutable failure : exn option;  (* first permanent error *)
  }

  let create ~total ~stamp =
    {
      total;
      cursor = Atomic.make 0;
      done_ = Atomic.make 0;
      aborted = Atomic.make false;
      last_progress = Atomic.make stamp;
      mutex = Mutex.create ();
      cond = Condition.create ();
      orphans = Queue.create ();
      failure = None;
    }

  let total q = q.total
  let aborted q = Atomic.get q.aborted
  let done_count q = Atomic.get q.done_
  let last_progress q = Atomic.get q.last_progress

  (* Orphans are served before the cursor so a crashed worker's chunk is
     re-run promptly (by the respawned or any other domain). *)
  let claim q =
    Mutex.lock q.mutex;
    let orphan =
      if Queue.is_empty q.orphans then None else Some (Queue.take q.orphans)
    in
    Mutex.unlock q.mutex;
    match orphan with
    | Some _ as c -> c
    | None ->
      if Atomic.get q.aborted then None
      else
        let c = Atomic.fetch_and_add q.cursor 1 in
        if c >= q.total then None else Some c

  (* The finisher of the last chunk wakes the submitting caller. *)
  let complete q ~stamp =
    Atomic.set q.last_progress stamp;
    if Atomic.fetch_and_add q.done_ 1 + 1 = q.total then begin
      Mutex.lock q.mutex;
      Condition.broadcast q.cond;
      Mutex.unlock q.mutex
    end

  let orphan q c =
    Mutex.lock q.mutex;
    Queue.add c q.orphans;
    Mutex.unlock q.mutex

  (* Record the first permanent error and wake the waiting caller. *)
  let fail q e =
    Mutex.lock q.mutex;
    if q.failure = None then q.failure <- Some e;
    Atomic.set q.aborted true;
    Condition.broadcast q.cond;
    Mutex.unlock q.mutex

  let failure q =
    Mutex.lock q.mutex;
    let f = q.failure in
    Mutex.unlock q.mutex;
    f

  (* Watchdog seam: wake the waiter so its stall predicate re-runs. *)
  let wake q =
    Mutex.lock q.mutex;
    Condition.broadcast q.cond;
    Mutex.unlock q.mutex

  (* Block until every chunk completed or the job failed.  [stall] is
     re-checked on each wakeup; returning [Some e] fails the job with
     [e].  Returns the failure, if any. *)
  let wait q ~stall =
    Mutex.lock q.mutex;
    let rec go () =
      if q.failure <> None then ()
      else if Atomic.get q.done_ >= q.total then ()
      else
        match stall () with
        | Some e ->
          q.failure <- Some e;
          Atomic.set q.aborted true
        | None ->
          Condition.wait q.cond q.mutex;
          go ()
    in
    go ();
    let f = q.failure in
    Mutex.unlock q.mutex;
    f
end

type sink = Array_sink of int array | Queue_sink of (int * int array) Chunkq.t

type job = {
  epoch : int;
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
  queue_capacity : int;
  ndomains : int;
  max_chunk_retries : int;
  max_respawns : int;
  stall_timeout_ns : int option;
  metrics : Metrics.t;
  ctmon : Ctmon.t;
  mutex : Mutex.t;
  cond : Condition.t;  (* workers wait for jobs; callers wait for done *)
  mutable fault_hook : fault_hook option;
  mutable chunk_observers : chunk_observer list;
  mutable job : job option;
  mutable epoch : int;
  mutable next_lane : int;
  mutable respawns : int;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  mutable watchdog : unit Domain.t option;
}

let domains t = t.ndomains
let metrics t = t.metrics
let ctmon t = t.ctmon
let chunk_samples t = t.chunk_samples
let degraded t = match t.mode with Degraded _ -> true | Bitsliced -> false
let set_fault_hook t hook = t.fault_hook <- hook

let add_chunk_observer t f = t.chunk_observers <- t.chunk_observers @ [ f ]

let stalled t (j : job) =
  match t.stall_timeout_ns with
  | None -> false
  | Some limit -> Clock.now_ns () - Workq.last_progress j.wq > limit

(* Record the first permanent error and wake everyone: the caller (waiting
   on the workq cond) and any producer/consumer blocked on the chunk
   queue. *)
let abort_job (j : job) err =
  Workq.fail j.wq err;
  match j.sink with Queue_sink q -> Chunkq.wake q | Array_sink _ -> ()

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
let run_chunk t ~worker ~clone (j : job) c =
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
    let clone = Lazy.force clone in
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
   error: it escapes to the worker loop, which orphans the chunk for
   another domain.  Exhausted retries abort the whole job so the error
   surfaces on the caller instead of hanging it. *)
let rec attempt_chunk t ~worker ~clone (j : job) c attempt =
  match
    (match t.fault_hook with
    | Some hook -> hook ~chunk:c ~lane:(j.lane_base + c) ~attempt
    | None -> ());
    run_chunk t ~worker ~clone j c
  with
  | () -> Workq.complete j.wq ~stamp:(Clock.now_ns ())
  | exception Kill_worker -> raise Kill_worker
  | exception e ->
    (match e with
    | Ctg_prng.Health.Entropy_failure _ -> Metrics.add_health_failure t.metrics
    | _ -> ());
    if attempt < t.max_chunk_retries && not (Workq.aborted j.wq) then begin
      Metrics.add_chunk_retry t.metrics;
      Unix.sleepf (0.001 *. float_of_int (1 lsl attempt));
      attempt_chunk t ~worker ~clone j c (attempt + 1)
    end
    else
      abort_job j (Chunk_failed { chunk = c; attempts = attempt + 1; error = e })

let rec worker_loop t worker =
  (* Clones are only needed by the bitsliced path; a degraded pool never
     touches the (failed) compiled program again. *)
  let clone = lazy (Ctgauss.Sampler.clone t.sampler) in
  let last_epoch = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while
      (not t.stopped)
      && (match t.job with None -> true | Some j -> j.epoch = !last_epoch)
    do
      Condition.wait t.cond t.mutex
    done;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      let j = Option.get t.job in
      last_epoch := j.epoch;
      Mutex.unlock t.mutex;
      let continue = ref true in
      while !continue do
        match Workq.claim j.wq with
        | None -> continue := false
        | Some c -> (
          try attempt_chunk t ~worker ~clone j c 0
          with Kill_worker ->
            handle_kill t ~worker j c;
            continue := false;
            running := false)
      done
    end
  done

(* A worker domain died mid-chunk.  Its claimed chunk goes on the orphan
   queue (served before the cursor, so it is re-run — by the replacement
   or any other domain — with identical output), and a replacement domain
   is spawned under the same worker index while the respawn budget lasts.
   Past the budget the job is failed rather than silently under-manned. *)
and handle_kill t ~worker (j : job) c =
  Mutex.lock t.mutex;
  let respawn = (not t.stopped) && t.respawns < t.max_respawns in
  (* Counted before the orphan is published: from then on another
     domain can finish the job and its caller read the metrics. *)
  if respawn then Metrics.add_worker_respawn t.metrics;
  (* Lock order is t.mutex -> wq.mutex, everywhere. *)
  Workq.orphan j.wq c;
  if respawn then begin
    t.respawns <- t.respawns + 1;
    t.workers <- Domain.spawn (fun () -> worker_loop t worker) :: t.workers
  end;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  if not respawn then
    abort_job j (Chunk_failed { chunk = c; attempts = 0; error = Kill_worker })

(* The watchdog exists because OCaml's [Condition] has no timed wait: it
   periodically wakes anyone sleeping on the pool or queue conditions so
   their predicates can notice a stall deadline.  Spawned only when
   [stall_timeout] is set — an un-timed pool pays nothing. *)
let watchdog_loop t interval =
  let continue = ref true in
  while !continue do
    Unix.sleepf interval;
    Mutex.lock t.mutex;
    if t.stopped then continue := false
    else begin
      Condition.broadcast t.cond;
      match t.job with
      | Some j -> (
        Workq.wake j.wq;
        match j.sink with Queue_sink q -> Chunkq.wake q | Array_sink _ -> ())
      | None -> ()
    end;
    Mutex.unlock t.mutex
  done

let create ?domains ?(backend = Stream_fork.Chacha) ?(chunk_batches = 16)
    ?queue_capacity ?rng_of_lane ?(self_test = true) ?stall_timeout
    ?(max_chunk_retries = 2) ?max_respawns ~seed sampler =
  let ndomains =
    match domains with
    | Some d ->
      if d < 1 then invalid_arg "Pool.create: domains must be >= 1";
      d
    | None -> Domain.recommended_domain_count ()
  in
  if chunk_batches < 1 then
    invalid_arg "Pool.create: chunk_batches must be >= 1";
  if max_chunk_retries < 0 then
    invalid_arg "Pool.create: max_chunk_retries must be >= 0";
  let max_respawns =
    match max_respawns with
    | Some r ->
      if r < 0 then invalid_arg "Pool.create: max_respawns must be >= 0";
      r
    | None -> max 4 ndomains
  in
  let stall_timeout_ns =
    match stall_timeout with
    | None -> None
    | Some s ->
      if s <= 0. then invalid_arg "Pool.create: stall_timeout must be > 0";
      Some (int_of_float (s *. 1e9))
  in
  let queue_capacity =
    match queue_capacity with
    | Some c ->
      if c < 1 then invalid_arg "Pool.create: queue_capacity must be >= 1";
      c
    | None -> 2 * ndomains
  in
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
  let metrics = Metrics.create ~domains:ndomains ~labels () in
  (match mode with
  | Degraded _ -> Metrics.set_degraded metrics true
  | Bitsliced -> ());
  let rng_of_lane =
    match rng_of_lane with
    | Some f -> f
    | None -> fun lane -> Stream_fork.bitstream ~backend ~seed ~lane ()
  in
  let t =
    {
      sampler;
      mode;
      gate_count = Ctgauss.Sampler.gate_count sampler;
      rng_of_lane;
      chunk_samples = chunk_batches * Ctgauss.Bitslice.lanes;
      queue_capacity;
      ndomains;
      max_chunk_retries;
      max_respawns;
      stall_timeout_ns;
      metrics;
      ctmon = Ctmon.create ~registry:(Metrics.registry metrics) ~labels ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      fault_hook = None;
      chunk_observers = [];
      job = None;
      epoch = 0;
      next_lane = 0;
      respawns = 0;
      stopped = false;
      workers = [];
      watchdog = None;
    }
  in
  t.workers <-
    List.init ndomains (fun w -> Domain.spawn (fun () -> worker_loop t w));
  (match stall_timeout_ns with
  | Some ns ->
    let interval = Float.min 0.05 (float_of_int ns /. 4e9) in
    t.watchdog <- Some (Domain.spawn (fun () -> watchdog_loop t interval))
  | None -> ());
  t

(* Publish a job to the workers; returns it with the lane range claimed. *)
let submit ?flow t ~n ~make_sink =
  if n < 0 then invalid_arg "Pool: n must be >= 0";
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: shut down"
  end;
  if t.job <> None then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: a job is already running (pools are single-consumer)"
  end;
  let total_chunks = (n + t.chunk_samples - 1) / t.chunk_samples in
  t.epoch <- t.epoch + 1;
  let j =
    {
      epoch = t.epoch;
      n;
      lane_base = t.next_lane;
      wq = Workq.create ~total:total_chunks ~stamp:(Clock.now_ns ());
      sink = make_sink ~total_chunks;
      flow;
    }
  in
  (* Lanes are consumed per call, so successive jobs draw fresh
     randomness while staying reproducible as a sequence. *)
  t.next_lane <- t.next_lane + total_chunks;
  t.job <- Some j;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  j

let finish_job t (j : job) =
  let failure =
    Workq.wait j.wq ~stall:(fun () ->
        if stalled t j then
          Some
            (Stalled
               { waited_ns = Clock.now_ns () - Workq.last_progress j.wq })
        else None)
  in
  Mutex.lock t.mutex;
  t.job <- None;
  Mutex.unlock t.mutex;
  (match (j.sink, failure) with
  | Queue_sink q, Some _ -> Chunkq.wake q
  | _ -> ());
  match failure with Some e -> raise e | None -> ()

let batch_parallel ?flow t ~n =
  let out = ref [||] in
  let j =
    submit ?flow t ~n ~make_sink:(fun ~total_chunks:_ ->
        let a = Array.make n 0 in
        out := a;
        Array_sink a)
  in
  finish_job t j;
  !out

let iter_batches ?flow t ~n f =
  let queue = ref None in
  let j =
    submit ?flow t ~n ~make_sink:(fun ~total_chunks:_ ->
        let q = Chunkq.create ~capacity:t.queue_capacity in
        queue := Some q;
        Queue_sink q)
  in
  (try
     match !queue with
     | None -> assert false
     | Some q ->
       (* Deliver in chunk order so the consumed stream equals the
          batch_parallel array; the pending table holds early finishers.
          The pop is abortable: a failed or stalled job unblocks the
          consumer here, and [finish_job] below re-raises its error. *)
       let should_abort () = Workq.aborted j.wq || stalled t j in
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
                if (not (Workq.aborted j.wq)) && stalled t j then
                  abort_job j
                    (Stalled
                       {
                         waited_ns =
                           Clock.now_ns () - Workq.last_progress j.wq;
                       });
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
        unblock, then fall through to finish_job, which re-raises. *)
     abort_job j e);
  finish_job t j

let shutdown t =
  Mutex.lock t.mutex;
  if not t.stopped then begin
    t.stopped <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- [];
    Option.iter Domain.join t.watchdog;
    t.watchdog <- None
  end
  else Mutex.unlock t.mutex

(* The coalescing core of the signing daemon: concurrent submitters block
   on a bounded pending queue while one runner domain drains it in batches.

   Memory is bounded by construction: at most [capacity] queued requests
   plus [max_batch] in flight inside the runner; a submit that finds the
   queue full is *shed* (counted, never enqueued), which is what turns
   overload into 429 responses instead of unbounded growth.

   Batching is group commit: an idle runner cuts a batch at once, and
   requests that arrive while a batch runs form the next one, so
   coalescing comes from the run time, not a timer — the batch-size
   histogram is the observable proof.  The first submit spawns the
   runner: an idle domain joins every stop-the-world collection. *)

open Ctg_sync.Shim

type 'res outcome = Done of 'res | Shed | Failed of exn

type ('req, 'res) cell = {
  req : 'req;
  t_enqueue : int;  (* Clock.now_ns at submit, for the queue-wait split *)
  mutable state : 'res state;
}

and 'res state = Pending | Fulfilled of 'res | Errored of exn

type ('req, 'res) t = {
  capacity : int;
  max_batch : int;
  run : 'req array -> 'res array;
  mu : Mutex.t;
  work : Condition.t;  (* runner: queue became non-empty, or stopping *)
  done_ : Condition.t;  (* submitters: some cells were filled *)
  queue : ('req, 'res) cell Queue.t;
  mutable stopping : bool;
  mutable shed : int;
  mutable batches : int;
  mutable submitted : int;
  mutable runner : unit Domain.t option;  (* spawned by the first submit *)
  (* Metrics (optional): batch-size histogram, shed counter, depth gauge,
     and the end-to-end latency split — time a request sat queued (enqueue
     to batch formation) vs time its batch spent inside [run]. *)
  batch_histo : Ctg_obs.Registry.histo option;
  shed_counter : Ctg_obs.Registry.counter option;
  depth_gauge : Ctg_obs.Registry.gauge option;
  queue_wait_histo : Ctg_obs.Registry.histo option;
  service_histo : Ctg_obs.Registry.histo option;
}

let rec runner_loop t =
  Mutex.lock t.mu;
  (* Missed-wakeup audit (ctg_race): predicate re-checked under [t.mu]
     on each wakeup; submit signals [t.work] under the same mutex after
     enqueueing, shutdown broadcasts after setting [stopping]. *)
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.work t.mu
  done;
  let draining = t.stopping in
  if Queue.is_empty t.queue && draining then Mutex.unlock t.mu
  else begin
    (* Group commit: cut the batch from whatever is queued now, in the
       same critical section as the wait. *)
    let k = min t.max_batch (Queue.length t.queue) in
    let cells = Array.init k (fun _ -> Queue.pop t.queue) in
    (match t.depth_gauge with
    | Some g -> Ctg_obs.Registry.set_gauge g (float_of_int (Queue.length t.queue))
    | None -> ());
    Mutex.unlock t.mu;
    (* Queue wait is per request: enqueue to batch cut, i.e. the time
       spent behind the batch that was running when it arrived. *)
    (match t.queue_wait_histo with
    | Some h ->
      let now = Ctg_obs.Clock.now_ns () in
      Array.iter
        (fun c -> Ctg_obs.Registry.observe h (max 0 (now - c.t_enqueue)))
        cells
    | None -> ());
    let t_run = Ctg_obs.Clock.now_ns () in
    let result =
      try Ok (t.run (Array.map (fun c -> c.req) cells)) with e -> Error e
    in
    (match t.service_histo with
    | Some h -> Ctg_obs.Registry.observe h (Ctg_obs.Clock.now_ns () - t_run)
    | None -> ());
    Mutex.lock t.mu;
    (match result with
    | Ok out when Array.length out = Array.length cells ->
      Array.iteri (fun i c -> c.state <- Fulfilled out.(i)) cells
    | Ok _ ->
      let e = Failure "Batcher: run returned a wrong-sized array" in
      Array.iter (fun c -> c.state <- Errored e) cells
    | Error e -> Array.iter (fun c -> c.state <- Errored e) cells);
    t.batches <- t.batches + 1;
    Condition.broadcast t.done_;
    Mutex.unlock t.mu;
    (match t.batch_histo with
    | Some h -> Ctg_obs.Registry.observe h k
    | None -> ());
    runner_loop t
  end

let create ?registry ?(labels = []) ~capacity ~max_batch ~run () =
  if capacity < 1 then invalid_arg "Batcher.create: capacity must be >= 1";
  if max_batch < 1 then invalid_arg "Batcher.create: max_batch must be >= 1";
  let histo name =
    Option.map (fun r -> Ctg_obs.Registry.histo r ~labels name) registry
  in
  let counter name =
    Option.map (fun r -> Ctg_obs.Registry.counter r ~labels name) registry
  in
  let gauge name =
    Option.map (fun r -> Ctg_obs.Registry.gauge r ~labels name) registry
  in
  let t =
    {
      capacity;
      max_batch;
      run;
      mu = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      shed = 0;
      batches = 0;
      submitted = 0;
      runner = None;
      batch_histo = histo "serve_batch_size";
      shed_counter = counter "serve_shed_total";
      depth_gauge = gauge "serve_queue_depth";
      queue_wait_histo = histo "serve_queue_wait_ns";
      service_histo = histo "serve_service_ns";
    }
  in
  t

let submit t req =
  Mutex.lock t.mu;
  if t.stopping then begin
    Mutex.unlock t.mu;
    Shed
  end
  else if Queue.length t.queue >= t.capacity then begin
    t.shed <- t.shed + 1;
    Mutex.unlock t.mu;
    (match t.shed_counter with
    | Some c -> Ctg_obs.Registry.incr c
    | None -> ());
    Shed
  end
  else begin
    let cell = { req; t_enqueue = Ctg_obs.Clock.now_ns (); state = Pending } in
    Queue.push cell t.queue;
    t.submitted <- t.submitted + 1;
    if Option.is_none t.runner then
      t.runner <- Some (Domain.spawn (fun () -> runner_loop t));
    (match t.depth_gauge with
    | Some g -> Ctg_obs.Registry.set_gauge g (float_of_int (Queue.length t.queue))
    | None -> ());
    Condition.signal t.work;
    (* Missed-wakeup audit (ctg_race): [cell.state] only changes under
       [t.mu] (runner fills cells and broadcasts [done_] while holding
       it), and this loop re-checks it under the same mutex — a
       broadcast between the check and the wait is impossible. *)
    let rec wait () =
      match cell.state with
      | Pending ->
        Condition.wait t.done_ t.mu;
        wait ()
      | Fulfilled res ->
        Mutex.unlock t.mu;
        Done res
      | Errored e ->
        Mutex.unlock t.mu;
        Failed e
    in
    wait ()
  end

let locked t f =
  Mutex.lock t.mu;
  let v = f t in
  Mutex.unlock t.mu;
  v

let queue_depth t = locked t (fun t -> Queue.length t.queue)
let shed_count t = locked t (fun t -> t.shed)
let batches t = locked t (fun t -> t.batches)
let submitted t = locked t (fun t -> t.submitted)
let stopping t = locked t (fun t -> t.stopping)

let shutdown t =
  Mutex.lock t.mu;
  if t.stopping then Mutex.unlock t.mu
  else begin
    t.stopping <- true;
    Condition.broadcast t.work;
    (* Read under [t.mu] after [stopping] is set: a submit that has not
       spawned the runner yet now sheds, so [runner] cannot change. *)
    let runner = t.runner in
    t.runner <- None;
    Mutex.unlock t.mu;
    Option.iter Domain.join runner
  end

(* The engine's one team of worker domains: the pool's chunk jobs and
   the daemon's signing batches both run here.  [domains] persistent
   workers park between jobs, so a job costs one wakeup per worker
   instead of a spawn.  The submitting caller does not run items; it
   waits, and is never the hung worker the stall watchdog contains.

   A job is a [Workq] plus a body called with the worker index, so
   callers keep per-worker state (the pool's sampler clones and
   per-domain metrics) without sharing it between domains.  Lock order:
   team mutex -> workq mutex. *)

open Ctg_sync.Shim
module Clock = Ctg_obs.Clock

exception Kill_worker

exception Chunk_failed of { chunk : int; attempts : int; error : exn }

exception Stalled of { waited_ns : int }

(* The per-job work-accounting core, a standalone module so the model
   checker can verify the exactly-once protocol (cursor + orphan re-queue
   + first failure wins + completion wakeup) in isolation from the team
   and the sampler machinery.  Workq operations never take the team
   lock; time stamps are supplied by the caller. *)
module Workq = struct
  type t = {
    total : int;
    cursor : int Atomic.t;  (* next unclaimed item *)
    done_ : int Atomic.t;  (* items completed *)
    aborted : bool Atomic.t;
    last_progress : int Atomic.t;  (* caller-supplied stamp *)
    orphans : int list Atomic.t;  (* items claimed by crashed workers *)
    mutex : Mutex.t;  (* guards failure + the wait below *)
    cond : Condition.t;  (* the submitting caller waits for done/failed *)
    mutable failure : exn option;  (* first permanent error *)
  }

  let create ~total ~stamp =
    {
      total;
      cursor = Atomic.make 0;
      done_ = Atomic.make 0;
      aborted = Atomic.make false;
      last_progress = Atomic.make stamp;
      orphans = Atomic.make [];
      mutex = Mutex.create ();
      cond = Condition.create ();
      failure = None;
    }

  let total q = q.total
  let aborted q = Atomic.get q.aborted
  let done_count q = Atomic.get q.done_
  let last_progress q = Atomic.get q.last_progress

  (* Orphans are served before the cursor so a crashed worker's item is
     re-run promptly (by the respawned or any other domain).  The orphan
     list is a lock-free stack: a claim with none pending is one read. *)
  let rec claim q =
    match Atomic.get q.orphans with
    | c :: rest as l ->
      if Atomic.compare_and_set q.orphans l rest then Some c else claim q
    | [] ->
      if Atomic.get q.aborted then None
      else
        let c = Atomic.fetch_and_add q.cursor 1 in
        if c >= q.total then None else Some c

  let complete q ~stamp =
    Atomic.set q.last_progress stamp;
    if Atomic.fetch_and_add q.done_ 1 + 1 = q.total then begin
      Mutex.lock q.mutex;
      Condition.broadcast q.cond;
      Mutex.unlock q.mutex
    end

  let rec orphan q c =
    let l = Atomic.get q.orphans in
    if not (Atomic.compare_and_set q.orphans l (c :: l)) then orphan q c

  let fail q e =
    Mutex.lock q.mutex;
    if q.failure = None then q.failure <- Some e;
    Atomic.set q.aborted true;
    Condition.broadcast q.cond;
    Mutex.unlock q.mutex

  let wake q =
    Mutex.lock q.mutex;
    Condition.broadcast q.cond;
    Mutex.unlock q.mutex

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

type job = {
  wq : Workq.t;
  body : worker:int -> int -> unit;
  respawned : unit -> unit;
}

(* Each worker index parks on its own slot, so the workers of a team
   never contend on one lock: a job is posted to every slot, and a worker
   only ever synchronizes with the submitter and, through the job's
   [Workq], with the other workers. *)
type slot = {
  s_mutex : Mutex.t;
  s_cond : Condition.t;  (* the worker waits for a new job or the stop *)
  mutable posted : job option;
  mutable stop : bool;
}

type t = {
  domains : int;
  max_respawns : int;
  stall_ns : int option;
  slots : slot array;
  mutex : Mutex.t;  (* guards the fields below *)
  mutable job : job option;
  mutable respawns : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  mutable watchdog : unit Domain.t option;
}

let domains t = t.domains

let post slot f =
  Mutex.lock slot.s_mutex;
  f slot;
  Condition.broadcast slot.s_cond;
  Mutex.unlock slot.s_mutex

(* Each post stores a fresh [Some j], so a worker waits for a slot value
   physically different from the last one it ran.  A replacement domain
   starts from [None], so it joins the job its predecessor was killed
   in. *)
let rec worker_loop t worker =
  let slot = t.slots.(worker) in
  let seen = ref None and alive = ref true in
  while !alive do
    Mutex.lock slot.s_mutex;
    while (not slot.stop) && slot.posted == !seen do
      Condition.wait slot.s_cond slot.s_mutex
    done;
    let next = if slot.stop then None else slot.posted in
    Mutex.unlock slot.s_mutex;
    seen := next;
    match next with
    | None -> alive := false
    | Some j -> alive := work t worker j
  done

(* Claim and run items until the job is exhausted or aborted; [false]
   when this worker was killed and its domain must exit. *)
and work t worker j =
  match Workq.claim j.wq with
  | None -> true
  | Some i -> (
    match j.body ~worker i with
    | () ->
      Workq.complete j.wq ~stamp:(Clock.now_ns ());
      work t worker j
    | exception Kill_worker ->
      lose t worker j i;
      false
    | exception e ->
      Workq.fail j.wq e;
      work t worker j)

(* A worker domain died at an item boundary.  Its item goes on the orphan
   queue (served before the cursor, so it is re-run by the replacement or
   any other domain), and a replacement domain is spawned under the same
   worker index while the respawn budget lasts.  Past the budget the job
   fails rather than run under-manned. *)
and lose t worker j i =
  Mutex.lock t.mutex;
  let respawn = (not t.stopping) && t.respawns < t.max_respawns in
  (* Counted before the orphan is published: from then on another domain
     can finish the job and its submitter read the count. *)
  if respawn then j.respawned ();
  Workq.orphan j.wq i;
  if respawn then begin
    t.respawns <- t.respawns + 1;
    t.workers <- Domain.spawn (fun () -> worker_loop t worker) :: t.workers
  end;
  Mutex.unlock t.mutex;
  if not respawn then
    Workq.fail j.wq
      (Chunk_failed { chunk = i; attempts = 0; error = Kill_worker })

(* [Some (Stalled _)] once the job has gone [stall_timeout] without an
   item completing. *)
let stall t wq =
  match t.stall_ns with
  | None -> None
  | Some limit ->
    let waited_ns = Clock.now_ns () - Workq.last_progress wq in
    if waited_ns > limit then Some (Stalled { waited_ns }) else None

(* OCaml's [Condition] has no timed wait, so the watchdog periodically
   wakes the submitter's wait to let its predicate notice a stall
   deadline.  Spawned only when [stall_timeout] is set. *)
let watchdog t interval =
  let alive = ref true in
  while !alive do
    Unix.sleepf interval;
    Mutex.lock t.mutex;
    if t.stopping then alive := false
    else Option.iter (fun j -> Workq.wake j.wq) t.job;
    Mutex.unlock t.mutex
  done

let create ?domains ?stall_timeout () =
  let domains =
    match domains with
    | Some d ->
      if d < 1 then invalid_arg "Workforce.create: domains must be >= 1";
      d
    | None -> Domain.recommended_domain_count ()
  in
  let stall_ns =
    match stall_timeout with
    | None -> None
    | Some s ->
      if s <= 0. then invalid_arg "Workforce.create: stall_timeout must be > 0";
      Some (int_of_float (s *. 1e9))
  in
  let t =
    {
      domains;
      max_respawns = max 4 domains;
      stall_ns;
      slots =
        Array.init domains (fun _ ->
            {
              s_mutex = Mutex.create ();
              s_cond = Condition.create ();
              posted = None;
              stop = false;
            });
      mutex = Mutex.create ();
      job = None;
      respawns = 0;
      stopping = false;
      workers = [];
      watchdog = None;
    }
  in
  Option.iter
    (fun ns ->
      let interval = Float.min 0.05 (float_of_int ns /. 4e9) in
      t.watchdog <- Some (Domain.spawn (fun () -> watchdog t interval)))
    stall_ns;
  t

let stopped t =
  Mutex.lock t.mutex;
  let s = t.stopping in
  Mutex.unlock t.mutex;
  s

(* Publish the job to every slot, then wait on its [Workq].  A job stays
   published after it ends, so that the waiting caller never takes the
   team lock; the next job replaces it once every item of the last one is
   done or it has failed. *)
let run_workq t wq ~respawned body =
  Mutex.lock t.mutex;
  let busy =
    match t.job with
    | Some j -> Workq.done_count j.wq < Workq.total j.wq && not (Workq.aborted j.wq)
    | None -> false
  in
  if t.stopping || busy then begin
    Mutex.unlock t.mutex;
    invalid_arg
      (if busy then "Workforce: a job is already running"
       else "Workforce: shut down")
  end;
  let j = { wq; body; respawned } in
  t.job <- Some j;
  (* Workers start with the first job: until then the team costs no
     domain, and an idle domain still takes part in every stop-the-world
     collection. *)
  if t.workers = [] then
    t.workers <-
      List.init t.domains (fun w -> Domain.spawn (fun () -> worker_loop t w));
  Mutex.unlock t.mutex;
  Array.iter (fun slot -> post slot (fun s -> s.posted <- Some j)) t.slots;
  Option.iter raise (Workq.wait wq ~stall:(fun () -> stall t wq))

let run t ~n f =
  if n < 0 then invalid_arg "Workforce.run: n must be >= 0";
  let wq = Workq.create ~total:n ~stamp:(Clock.now_ns ()) in
  run_workq t wq ~respawned:ignore (fun ~worker:_ i -> f i)

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopping then Mutex.unlock t.mutex
  else begin
    t.stopping <- true;
    Mutex.unlock t.mutex;
    Array.iter (fun slot -> post slot (fun s -> s.stop <- true)) t.slots;
    List.iter Domain.join t.workers;
    t.workers <- [];
    Option.iter Domain.join t.watchdog;
    t.watchdog <- None
  end

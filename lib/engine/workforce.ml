(* A persistent team of helper domains for successive parallel-for jobs.

   Spawning and joining fresh domains per job is fine for one big CLI
   batch but not for a daemon dispatching a sign_many batch every few
   milliseconds: domain spawn/join costs dwarf small batches.  The
   workforce parks its helpers on a condition variable between jobs, so
   submitting a job costs one broadcast instead of [domains - 1] spawns.

   Scheduling model: an atomic cursor over [0 .. n-1], the caller
   participates, first error wins and cancels the remaining iterations.  Only one job runs at a time; concurrent
   [run] calls serialize on an internal job mutex. *)

open Ctg_sync.Shim

type job = {
  n : int;
  f : int -> unit;
  cursor : int Atomic.t;
  error : exn option Atomic.t;
  mutable active : int;  (* helpers still inside this job *)
}

type t = {
  domains : int;
  mu : Mutex.t;
  cond : Condition.t;  (* helpers: new job or shutdown *)
  done_cond : Condition.t;  (* submitter: all helpers left the job *)
  mutable current : job option;
  mutable generation : int;  (* bumped per job; helpers wait for a change *)
  mutable stopping : bool;
  mutable helpers : unit Domain.t list;
  job_mu : Mutex.t;  (* serializes [run] callers *)
}

let work job =
  let continue = ref true in
  while !continue do
    if Atomic.get job.error <> None then continue := false
    else begin
      let i = Atomic.fetch_and_add job.cursor 1 in
      if i >= job.n then continue := false
      else
        try job.f i
        with e ->
          ignore (Atomic.compare_and_set job.error None (Some e));
          continue := false
    end
  done

let helper_loop t =
  let seen = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock t.mu;
    while (not t.stopping) && (t.generation = !seen || t.current = None) do
      Condition.wait t.cond t.mu
    done;
    if t.stopping then begin
      Mutex.unlock t.mu;
      continue := false
    end
    else begin
      let job = Option.get t.current in
      seen := t.generation;
      job.active <- job.active + 1;
      Mutex.unlock t.mu;
      (try work job with _ -> ());
      Mutex.lock t.mu;
      job.active <- job.active - 1;
      if job.active = 0 then Condition.broadcast t.done_cond;
      Mutex.unlock t.mu
    end
  done

let create ?domains () =
  let domains =
    match domains with
    | Some d ->
      if d < 1 then invalid_arg "Workforce.create: domains must be >= 1";
      d
    | None -> Domain.recommended_domain_count ()
  in
  let t =
    {
      domains;
      mu = Mutex.create ();
      cond = Condition.create ();
      done_cond = Condition.create ();
      current = None;
      generation = 0;
      stopping = false;
      helpers = [];
      job_mu = Mutex.create ();
    }
  in
  t.helpers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> helper_loop t));
  t

let domains t = t.domains

let run t ~n f =
  if n < 0 then invalid_arg "Workforce.run: n must be >= 0";
  if n = 0 then ()
  else begin
    Mutex.lock t.job_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.job_mu)
      (fun () ->
        Mutex.lock t.mu;
        if t.stopping then begin
          Mutex.unlock t.mu;
          invalid_arg "Workforce.run: workforce is shut down"
        end;
        let job =
          { n; f; cursor = Atomic.make 0; error = Atomic.make None; active = 0 }
        in
        t.current <- Some job;
        t.generation <- t.generation + 1;
        Condition.broadcast t.cond;
        Mutex.unlock t.mu;
        (* The caller is one of the workers. *)
        work job;
        (* Wait until every helper that entered this job has left it; late
           helpers that only wake after [current] is cleared never enter. *)
        Mutex.lock t.mu;
        while job.active > 0 do
          Condition.wait t.done_cond t.mu
        done;
        t.current <- None;
        Mutex.unlock t.mu;
        match Atomic.get job.error with Some e -> raise e | None -> ())
  end

let shutdown t =
  Mutex.lock t.mu;
  if not t.stopping then begin
    t.stopping <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu;
    List.iter Domain.join t.helpers;
    t.helpers <- []
  end
  else Mutex.unlock t.mu

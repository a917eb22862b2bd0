(* Bounded concurrency harnesses for the production protocols, run under
   the {!Model} DPOR checker.  Each harness is a closed program over the
   real modules (not re-implementations): the checker explores every
   inequivalent interleaving of its Sync operations and fails on an
   assertion, deadlock or livelock.

   Harnesses are deliberately tiny — two or three fibers, single-digit
   item counts — because DPOR cost grows with the number of conflicting
   operations, and the protocols under test are data-size-independent:
   a two-element queue exercises the same lock/wait/signal structure as
   a thousand-element one.

   The [mutants] list holds known-broken variants; the checker must flag
   every one (that is the test that the checker still has teeth). *)

open Ctg_sync.Shim
module Model = Model

type harness = {
  h_name : string;
  h_descr : string;
  h_expect_violation : bool;  (* mutants: the checker must flag these *)
  h_fn : unit -> unit;
  h_max_execs : int;  (* exploration budget; tuned per harness *)
  h_spin_limit : int;
  (* Re-reads of an already-seen object before a fiber is spin-parked.
     The default (8) catches retry loops fast; harnesses whose payload
     legitimately re-reads an unwritten flag (the registry compile reads
     Trace's [enabled] once per internal span) raise it — sound there
     because those reads conflict with nothing and the harness's real
     blocking is all modeled Condition parking. *)
}

(* ---------------------------------------------------------------- *)
(* 1. Obs.Registry seqlock: a reset swapping cells concurrently with  *)
(*    a [read_consistent] reader must never yield a torn snapshot.    *)
(* ---------------------------------------------------------------- *)

let seqlock () =
  let reg = Ctg_obs.Registry.create () in
  let a = Ctg_obs.Registry.counter reg "a" in
  let b = Ctg_obs.Registry.counter reg "b" in
  (* Establish the invariant a = b = 1 before racing. *)
  Ctg_obs.Registry.incr a;
  Ctg_obs.Registry.incr b;
  let resetter = Domain.spawn (fun () -> Ctg_obs.Registry.reset reg) in
  let reader =
    Domain.spawn (fun () ->
        let va, vb =
          Ctg_obs.Registry.read_consistent reg (fun () ->
              (Ctg_obs.Registry.value a, Ctg_obs.Registry.value b))
        in
        (* Either both pre-reset or both post-reset; (1, 0) / (0, 1)
           would be a torn snapshot across the cell swap. *)
        assert ((va, vb) = (1, 1) || (va, vb) = (0, 0)))
  in
  Domain.join resetter;
  Domain.join reader

(* ---------------------------------------------------------------- *)
(* 2. Engine.Workforce work accounting: cursor + orphan re-queue +     *)
(*    completion wakeup.  Every item completes exactly once even       *)
(*    when one worker crashes at an item boundary; first failure wins  *)
(*    and unblocks everyone.                                           *)
(* ---------------------------------------------------------------- *)

let pool_cursor () =
  let module W = Ctg_engine.Workforce.Workq in
  let wq = W.create ~total:2 ~stamp:0 in
  let drain () =
    let continue = ref true in
    while !continue do
      match W.claim wq with
      | Some _ -> W.complete wq ~stamp:1
      | None -> continue := false
    done
  in
  (* w1 crashes on its first chunk (orphans it), then — like a respawned
     domain — rejoins the drain loop.  w2 just drains. *)
  let w1 =
    Domain.spawn (fun () ->
        (match W.claim wq with
        | Some c -> W.orphan wq c
        | None -> ());
        drain ())
  in
  let w2 = Domain.spawn drain in
  Domain.join w1;
  Domain.join w2;
  assert (W.wait wq ~stall:(fun () -> None) = None);
  assert (W.done_count wq = 2)

let pool_cursor_fail () =
  let module W = Ctg_engine.Workforce.Workq in
  let wq = W.create ~total:2 ~stamp:0 in
  let boom = Failure "chunk failed" in
  let w1 =
    Domain.spawn (fun () ->
        match W.claim wq with
        | Some _ -> W.fail wq boom
        | None -> ())
  in
  let w2 =
    Domain.spawn (fun () ->
        let continue = ref true in
        while !continue do
          match W.claim wq with
          | Some _ -> W.complete wq ~stamp:1
          | None -> continue := false
        done)
  in
  Domain.join w1;
  Domain.join w2;
  (* The waiter must be released by either completion or failure, and a
     recorded failure must be the first one. *)
  (match W.wait wq ~stall:(fun () -> None) with
  | Some e -> assert (e == boom)
  | None -> assert (W.done_count wq = 2))

(* ---------------------------------------------------------------- *)
(* 3. Engine.Workforce: parked workers, epoch wakeup, first error      *)
(*    wins, no lost indices.                                           *)
(* ---------------------------------------------------------------- *)

let workforce () =
  let module Wf = Ctg_engine.Workforce in
  let wf = Wf.create ~domains:2 () in
  let hits = Array.init 2 (fun _ -> Atomic.make 0) in
  Wf.run wf ~n:2 (fun i -> Atomic.incr hits.(i));
  Wf.shutdown wf;
  Array.iter (fun h -> assert (Atomic.get h = 1)) hits

let workforce_error () =
  let module Wf = Ctg_engine.Workforce in
  let wf = Wf.create ~domains:2 () in
  let boom = Failure "iteration failed" in
  let raised =
    match Wf.run wf ~n:2 (fun i -> if i = 0 then raise boom) with
    | () -> false
    | exception e -> e == boom
  in
  Wf.shutdown wf;
  assert raised

(* ---------------------------------------------------------------- *)
(* 4. Serve.Batcher: bounded pending queue, exact shed accounting,     *)
(*    every accepted request fulfilled exactly once, drain on stop.    *)
(* ---------------------------------------------------------------- *)

let batcher () =
  let module B = Ctg_serve.Batcher in
  let t =
    B.create ~capacity:1 ~max_batch:2
      ~run:(fun reqs -> Array.map (fun r -> r * 10) reqs)
      ()
  in
  let outcomes = Array.make 2 B.Shed in
  let submitters =
    List.init 2 (fun i ->
        Domain.spawn (fun () -> outcomes.(i) <- B.submit t (i + 1)))
  in
  List.iter Domain.join submitters;
  B.shutdown t;
  let dones = ref 0 and sheds = ref 0 in
  Array.iteri
    (fun i o ->
      match o with
      | B.Done r ->
        incr dones;
        assert (r = (i + 1) * 10)
      | B.Shed -> incr sheds
      | B.Failed _ -> assert false)
    outcomes;
  assert (!dones + !sheds = 2);
  assert (B.shed_count t = !sheds);
  assert (B.submitted t = !dones)

let batcher_stop () =
  let module B = Ctg_serve.Batcher in
  let t =
    B.create ~capacity:2 ~max_batch:1
      ~run:(fun reqs -> Array.map (fun r -> -r) reqs)
      ()
  in
  (* A submit racing shutdown is either served (drain) or shed (stopping
     flag) — never dropped-and-acked, never deadlocked. *)
  let submitter = Domain.spawn (fun () -> B.submit t 7) in
  B.shutdown t;
  (match Domain.join submitter with
  | B.Done r -> assert (r = -7)
  | B.Shed -> ()
  | B.Failed _ -> assert false)

(* The runner is spawned by the first submit, under the batcher's lock.
   Two first submits racing shutdown: whichever spawns the runner, the
   shutdown that returns has joined it, so every accepted request has
   already run (one batch each at [max_batch] 1). *)
let batcher_spawn () =
  let module B = Ctg_serve.Batcher in
  let t =
    B.create ~capacity:2 ~max_batch:1
      ~run:(fun reqs -> Array.map (fun r -> r + 1) reqs)
      ()
  in
  let submitters =
    List.init 2 (fun i -> Domain.spawn (fun () -> B.submit t (10 * i)))
  in
  B.shutdown t;
  assert (B.batches t = B.submitted t);
  List.iteri
    (fun i d ->
      match Domain.join d with
      | B.Done r -> assert (r = (10 * i) + 1)
      | B.Shed -> ()
      | B.Failed _ -> assert false)
    submitters

(* ---------------------------------------------------------------- *)
(* 5. Single-flight: Engine.Registry compile cache and Serve.Keyring   *)
(*    keygen cache — two racing lookups of the same key must share     *)
(*    one compile/keygen and receive physically equal results.         *)
(* ---------------------------------------------------------------- *)

let engine_registry () =
  let module R = Ctg_engine.Registry in
  (* Warm the process-wide metric handles (hit/miss counters, compile
     histogram) sequentially so the racing part only explores the
     single-flight protocol itself. *)
  let reg = R.create () in
  ignore
    (R.lookup reg ~self_test:false ~sigma:"2" ~precision:16 ~tail_cut:13 ());
  let reg = R.create () in
  let out = Array.make 2 None in
  let fibers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            out.(i) <-
              Some
                (R.lookup reg ~self_test:false ~sigma:"2" ~precision:16
                   ~tail_cut:13 ())))
  in
  List.iter Domain.join fibers;
  (match (out.(0), out.(1)) with
  | Some a, Some b -> assert (a == b)
  | _ -> assert false);
  assert (R.compiles reg = 1)

let keyring () =
  let module K = Ctg_serve.Keyring in
  let kr =
    K.create
      ~registry:(Ctg_obs.Registry.create ())
      ~params:(Ctg_falcon.Params.custom ~n:8)
      ()
  in
  let out = Array.make 2 None in
  let fibers =
    List.init 2 (fun i ->
        Domain.spawn (fun () -> out.(i) <- Some (K.lookup kr ~tenant:"alice")))
  in
  List.iter Domain.join fibers;
  (match (out.(0), out.(1)) with
  | Some a, Some b -> assert (a == b)
  | _ -> assert false);
  assert (K.keygens kr = 1)

(* ---------------------------------------------------------------- *)
(* 6. Obs.Trace ring: reader concurrent with a wrapping writer never   *)
(*    misattributes an overwritten slot.                               *)
(* ---------------------------------------------------------------- *)

let trace_ring () =
  let module Ring = Ctg_obs.Trace.Ring in
  let r = Ring.create 2 in
  Ring.push r 100;
  let writer =
    Domain.spawn (fun () ->
        Ring.push r 101;
        Ring.push r 102)
  in
  let reader =
    Domain.spawn (fun () ->
        let live, dropped = Ring.read r in
        (* Every surviving (index, value) pair must carry the value that
           was pushed at that index — attribution is certain — and
           nothing is double-counted. *)
        List.iter (fun (idx, v) -> assert (v = 100 + idx)) live;
        assert (List.length live + dropped <= 3))
  in
  Domain.join writer;
  Domain.join reader;
  let live, dropped = Ring.read r in
  assert (List.length live = 2);
  assert (dropped = 1);
  List.iter (fun (idx, v) -> assert (v = 100 + idx)) live

(* ---------------------------------------------------------------- *)
(* Mutants: known-broken programs the checker must flag.              *)
(* ---------------------------------------------------------------- *)

let racy_counter () =
  let c = Atomic.make 0 in
  let incr_racy () =
    let v = Atomic.get c in
    Atomic.set c (v + 1)
  in
  let d1 = Domain.spawn incr_racy in
  let d2 = Domain.spawn incr_racy in
  Domain.join d1;
  Domain.join d2;
  assert (Atomic.get c = 2)

(* The Obs.Registry seqlock with the generation bump removed: the reset
   cell-swap becomes invisible to the reader's validation. *)
let seqlock_nogen () =
  let a = Atomic.make 1 and b = Atomic.make 1 in
  let resetter =
    Domain.spawn (fun () ->
        Atomic.set a 0;
        Atomic.set b 0)
  in
  let reader =
    Domain.spawn (fun () ->
        let va = Atomic.get a in
        let vb = Atomic.get b in
        assert ((va, vb) = (1, 1) || (va, vb) = (0, 0)))
  in
  Domain.join resetter;
  Domain.join reader

let wait_no_predicate () =
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let ready = ref false in
  let waiter =
    Domain.spawn (fun () ->
        Mutex.lock mu;
        Condition.wait cond mu;
        assert !ready;
        Mutex.unlock mu)
  in
  let signaller =
    Domain.spawn (fun () ->
        Mutex.lock mu;
        ready := true;
        Condition.signal cond;
        Mutex.unlock mu)
  in
  Domain.join waiter;
  Domain.join signaller

(* The pre-PR-7 trace ring: head published before the slot write, no
   reserved counter — a reader racing a wrapping writer can attribute a
   new value to an old index (or see a stale value at a new index). *)
let trace_ring_mutant () =
  let cap = 2 in
  let slots = Array.init cap (fun _ -> Atomic.make None) in
  let head = Atomic.make 0 in
  let push v =
    let i = Atomic.get head in
    Atomic.set head (i + 1);  (* published before the slot is written *)
    Atomic.set slots.(i mod cap) (Some (i, v))
  in
  push 100;
  let writer =
    Domain.spawn (fun () ->
        push 101;
        push 102)
  in
  let reader =
    Domain.spawn (fun () ->
        let h = Atomic.get head in
        for idx = max 0 (h - cap) to h - 1 do
          match Atomic.get slots.(idx mod cap) with
          | Some (stored, v) ->
            if stored = idx then
              (* Claimed attribution must be truthful. *)
              assert (v = 100 + idx)
          | None -> assert false
        done)
  in
  Domain.join writer;
  Domain.join reader

(* ---------------------------------------------------------------- *)
(* Catalogue                                                          *)
(* ---------------------------------------------------------------- *)

let harnesses =
  [
    {
      h_name = "seqlock";
      h_descr = "Obs.Registry reset vs read_consistent: no torn snapshot";
      h_expect_violation = false;
      h_fn = seqlock;
      h_max_execs = 200_000;
      h_spin_limit = 8;
    };
    {
      h_name = "pool_cursor";
      h_descr =
        "Engine.Workforce.Workq: orphaned item re-run, all complete exactly once";
      h_expect_violation = false;
      h_fn = pool_cursor;
      h_max_execs = 200_000;
      h_spin_limit = 8;
    };
    {
      h_name = "pool_cursor_fail";
      h_descr = "Engine.Workforce.Workq: first failure wins and releases waiter";
      h_expect_violation = false;
      h_fn = pool_cursor_fail;
      h_max_execs = 200_000;
      h_spin_limit = 8;
    };
    {
      h_name = "workforce";
      h_descr = "Engine.Workforce: parked workers, no lost indices";
      h_expect_violation = false;
      h_fn = workforce;
      h_max_execs = 400_000;
      h_spin_limit = 8;
    };
    {
      h_name = "workforce_error";
      h_descr = "Engine.Workforce: first iteration error wins and cancels";
      h_expect_violation = false;
      h_fn = workforce_error;
      h_max_execs = 400_000;
      h_spin_limit = 8;
    };
    {
      h_name = "batcher";
      h_descr = "Serve.Batcher: capacity bound, exact shed count, no drops";
      h_expect_violation = false;
      h_fn = batcher;
      h_max_execs = 400_000;
      h_spin_limit = 8;
    };
    {
      h_name = "batcher_stop";
      h_descr = "Serve.Batcher: submit racing shutdown drains or sheds";
      h_expect_violation = false;
      h_fn = batcher_stop;
      h_max_execs = 200_000;
      h_spin_limit = 8;
    };
    {
      h_name = "batcher_spawn";
      h_descr = "Serve.Batcher: first submits racing shutdown, runner joined";
      h_expect_violation = false;
      h_fn = batcher_spawn;
      h_max_execs = 400_000;
      h_spin_limit = 8;
    };
    {
      h_name = "engine_registry";
      h_descr = "Engine.Registry: racing lookups share one compile";
      h_expect_violation = false;
      h_fn = engine_registry;
      h_max_execs = 100_000;
      h_spin_limit = 1_000_000;
    };
    {
      h_name = "keyring";
      h_descr = "Serve.Keyring: racing lookups share one keygen";
      h_expect_violation = false;
      h_fn = keyring;
      h_max_execs = 100_000;
      h_spin_limit = 8;
    };
    {
      h_name = "trace_ring";
      h_descr = "Obs.Trace.Ring: wrap-racing reader never misattributes";
      h_expect_violation = false;
      h_fn = trace_ring;
      h_max_execs = 100_000;
      h_spin_limit = 8;
    };
  ]

let mutants =
  [
    {
      h_name = "racy_counter";
      h_descr = "read-then-write increment (mutant: must be flagged)";
      h_expect_violation = true;
      h_fn = racy_counter;
      h_max_execs = 10_000;
      h_spin_limit = 8;
    };
    {
      h_name = "seqlock_nogen";
      h_descr = "seqlock without generation bump (mutant: must be flagged)";
      h_expect_violation = true;
      h_fn = seqlock_nogen;
      h_max_execs = 10_000;
      h_spin_limit = 8;
    };
    {
      h_name = "wait_no_predicate";
      h_descr = "Condition.wait without predicate (mutant: must be flagged)";
      h_expect_violation = true;
      h_fn = wait_no_predicate;
      h_max_execs = 10_000;
      h_spin_limit = 8;
    };
    {
      h_name = "trace_ring_mutant";
      h_descr = "head-first ring publish (mutant: must be flagged)";
      h_expect_violation = true;
      h_fn = trace_ring_mutant;
      h_max_execs = 10_000;
      h_spin_limit = 8;
    };
  ]

let all = harnesses @ mutants
let find name = List.find_opt (fun h -> h.h_name = name) all

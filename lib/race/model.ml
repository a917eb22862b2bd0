(* DPOR-style stateless model checker for code written against the
   Ctg_sync shim (dscheck-like, no external deps).

   A harness is a plain [unit -> unit] thunk.  We run it as fiber 0 on a
   single real domain; every shim operation performs an effect first, so
   the harness pauses at each shared-memory event and this scheduler
   picks who runs next.  Model-level mutexes/conditions/domains never
   touch the real primitives in checked mode, which is why nothing ever
   truly blocks: blocking is an enabledness condition on the fiber.

   Exploration is classic Flanagan–Godefroid dynamic partial-order
   reduction: depth-first re-execution with per-step backtrack sets,
   pruned by vector-clock happens-before.  Dependency relation: two
   steps conflict when they touch the same object (by physical identity)
   and at least one is a write/rmw; mutex and condition operations count
   as rmw on the primitive itself.  When a conflicting, unordered pair
   is observed we add the later fiber to the backtrack set of the
   earlier step's pre-state (or, if it was not enabled there, all
   enabled fibers — the conservative F-G fallback).  Sleep sets prune
   the branches that would only reorder independent steps: a fiber
   already explored from a pre-state sleeps in its siblings until a
   conflicting step runs, and a state whose enabled fibers all sleep is
   abandoned.

   Blocking semantics modeled:
   - Lock is enabled iff the mutex is free; Unlock by a non-owner is a
     violation.
   - Condition.wait releases the mutex and parks the fiber in a FIFO
     queue; signal moves the head waiter to a reacquire state (enabled
     iff the mutex is free).  No spurious wakeups are modeled — that is
     exactly what makes a missing predicate re-check show up as a
     deterministic deadlock here instead of a once-a-month hang.
   - Domain.join is enabled iff the target fiber completed; if it
     raised, the exception is re-raised in the joiner (stdlib
     semantics).
   - A fiber stuck in a read/relax spin (seqlock retry loops) is
     spin-parked after [spin_limit] *re-reads* of objects it already
     read since the last state change, so the DFS stays finite; any
     state-changing operation by anyone unparks all spinners.  Bounded
     scans over fresh objects never park.  All runnable fibers
     spin-parked = livelock violation.

   Deadlock (nobody enabled, somebody not done) and any fiber that
   completes by raising (assert failures in harnesses) are violations.
   Every violation carries the schedule — the list of fiber choices —
   which is the replay seed: [replay] forces the same interleaving. *)

module SI = Ctg_sync.Sync.Internal

let max_fibers = 16

(* ---------------------------------------------------------------- *)
(* Small growable array (no Dynarray in 5.1).                        *)

module Dyn = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 64 dummy; n = 0; dummy }
  let length t = t.n
  let get t i = t.a.(i)

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) t.dummy in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  (* Clears dropped slots so leaked continuations can be collected. *)
  let truncate t n =
    for i = n to t.n - 1 do
      t.a.(i) <- t.dummy
    done;
    t.n <- n
end

(* ---------------------------------------------------------------- *)
(* Per-execution state.                                              *)

type resume =
  | R_unit of (unit, unit) Effect.Deep.continuation
  | R_bool of (bool, unit) Effect.Deep.continuation
  | R_int of (int, unit) Effect.Deep.continuation

type op =
  | O_mem of SI.kind * int
  | O_lock of int
  | O_trylock of int
  | O_unlock of int
  | O_wait of int * int  (* cond, mutex *)
  | O_signal of int
  | O_broadcast of int
  | O_spawn of (unit -> unit)
  | O_join of int

type pend =
  | P_start of (unit -> unit)
  | P_op of op * resume
  | P_parked of int * int * (unit, unit) Effect.Deep.continuation
  | P_reacquire of int * (unit, unit) Effect.Deep.continuation
  | P_done

type fiber = {
  f_id : int;
  mutable f_pend : pend;
  f_clock : int array;  (* vector clock, indexed by fiber id *)
  mutable f_spins : int;  (* re-reads of an already-read object *)
  mutable f_seen : int list;  (* objects read since the last state change *)
  mutable f_error : exn option;
  mutable f_error_consumed : bool;
}

type objinfo = {
  o_id : int;
  o_obj : Obj.t;
  mutable o_tag : char;  (* 'a' atomic, 'm' mutex, 'c' cond *)
  mutable o_last_write : (int * int * int array) option;  (* step, fiber, clock *)
  mutable o_reads : (int * int * int array) list;  (* since last write *)
  mutable o_owner : int option;  (* mutexes *)
  o_waiters : int Queue.t;  (* conditions, FIFO *)
}

(* The objects a pending step touches, each flagged when written. *)
type footprint = (int * bool) list

let dependent (a : footprint) b =
  List.exists (fun (o, w) -> List.exists (fun (o', w') -> o = o' && (w || w')) b) a

(* DFS node = pre-state of step [i]; persists across executions. *)
type node = {
  n_enabled : int list;
  n_steps : (int * footprint) list;  (* each enabled fiber's next step *)
  n_sleep : (int * footprint) list;  (* fibers not to start from here *)
  mutable n_chosen : int;
  mutable n_done : int list;
  mutable n_todo : int list;
}

let dummy_node =
  { n_enabled = []; n_steps = []; n_sleep = []; n_chosen = -1; n_done = [];
    n_todo = [] }

let dummy_fiber =
  {
    f_id = -1;
    f_pend = P_done;
    f_clock = [||];
    f_spins = 0;
    f_seen = [];
    f_error = None;
    f_error_consumed = false;
  }

let dummy_obj =
  {
    o_id = -1;
    o_obj = Obj.repr dummy_node;
    o_tag = '?';
    o_last_write = None;
    o_reads = [];
    o_owner = None;
    o_waiters = Queue.create ();
  }

type exec = {
  fibers : fiber Dyn.t;
  objs : objinfo Dyn.t;
  nodes : node Dyn.t;
  mutable steps : int;
  mutable trace : string list;  (* reversed *)
  mutable schedule : int list;  (* reversed *)
  mutable cur : int;
  spin_limit : int;
  max_steps : int;
}

type vkind =
  | Assertion of string
  | Deadlock
  | Livelock
  | Lock_misuse of string
  | Too_long

exception Abort of vkind
exception Sleep_blocked

let vkind_to_string = function
  | Assertion m -> "assertion: " ^ m
  | Deadlock -> "deadlock (missed wakeup or lock cycle: nobody runnable)"
  | Livelock -> "livelock (all runnable fibers in a read spin)"
  | Lock_misuse m -> "lock misuse: " ^ m
  | Too_long -> "execution exceeded max_steps (harness too large?)"

(* ---------------------------------------------------------------- *)
(* Objects, fibers.                                                  *)

let obj_info st (o : Obj.t) tag =
  let n = Dyn.length st.objs in
  let rec find i =
    if i >= n then begin
      let info =
        {
          o_id = n;
          o_obj = o;
          o_tag = tag;
          o_last_write = None;
          o_reads = [];
          o_owner = None;
          o_waiters = Queue.create ();
        }
      in
      Dyn.push st.objs info;
      info
    end
    else
      let inf = Dyn.get st.objs i in
      if inf.o_obj == o then inf else find (i + 1)
  in
  find 0

let oname st id =
  let inf = Dyn.get st.objs id in
  Printf.sprintf "%c%d" inf.o_tag id

let new_fiber st =
  let id = Dyn.length st.fibers in
  if id >= max_fibers then failwith "ctg_race: more than 16 fibers in harness";
  let f =
    {
      f_id = id;
      f_pend = P_done;
      f_clock = Array.make max_fibers 0;
      f_spins = 0;
      f_seen = [];
      f_error = None;
      f_error_consumed = false;
    }
  in
  Dyn.push st.fibers f;
  f

let get_fiber st id = Dyn.get st.fibers id

let is_done f = match f.f_pend with P_done -> true | _ -> false

(* ---------------------------------------------------------------- *)
(* Effect handler: capture each operation into f_pend and return, so  *)
(* the scheduler regains control at every shared-memory event.        *)

let fiber_handler st f : (unit, unit) Effect.Deep.handler =
  let open Effect.Deep in
  {
    retc = (fun () -> f.f_pend <- P_done);
    exnc =
      (fun e ->
        f.f_error <- Some e;
        f.f_pend <- P_done);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | SI.Op (k, o) ->
          let id = (obj_info st o 'a').o_id in
          Some
            (fun (c : (a, unit) continuation) ->
              f.f_pend <- P_op (O_mem (k, id), R_unit c))
        | SI.Lock_op o ->
          let id = (obj_info st o 'm').o_id in
          Some
            (fun (c : (a, unit) continuation) ->
              f.f_pend <- P_op (O_lock id, R_unit c))
        | SI.Try_lock_op o ->
          let id = (obj_info st o 'm').o_id in
          Some
            (fun (c : (a, unit) continuation) ->
              f.f_pend <- P_op (O_trylock id, R_bool c))
        | SI.Unlock_op o ->
          let id = (obj_info st o 'm').o_id in
          Some
            (fun (c : (a, unit) continuation) ->
              f.f_pend <- P_op (O_unlock id, R_unit c))
        | SI.Wait_op (co, m) ->
          let cid = (obj_info st co 'c').o_id in
          let mid = (obj_info st m 'm').o_id in
          Some
            (fun (c : (a, unit) continuation) ->
              f.f_pend <- P_op (O_wait (cid, mid), R_unit c))
        | SI.Signal_op o ->
          let id = (obj_info st o 'c').o_id in
          Some
            (fun (c : (a, unit) continuation) ->
              f.f_pend <- P_op (O_signal id, R_unit c))
        | SI.Broadcast_op o ->
          let id = (obj_info st o 'c').o_id in
          Some
            (fun (c : (a, unit) continuation) ->
              f.f_pend <- P_op (O_broadcast id, R_unit c))
        | SI.Spawn_op fn ->
          Some
            (fun (c : (a, unit) continuation) ->
              f.f_pend <- P_op (O_spawn fn, R_int c))
        | SI.Join_op id ->
          Some
            (fun (c : (a, unit) continuation) ->
              f.f_pend <- P_op (O_join id, R_unit c))
        | _ -> None);
  }

(* ---------------------------------------------------------------- *)
(* Enabledness.                                                      *)

let enabled_ignoring_spin st f =
  match f.f_pend with
  | P_done | P_parked _ -> false
  | P_start _ -> true
  | P_reacquire (m, _) -> (Dyn.get st.objs m).o_owner = None
  | P_op (op, _) -> (
    match op with
    | O_lock m -> (Dyn.get st.objs m).o_owner = None
    | O_join id -> is_done (get_fiber st id)
    | _ -> true)

let enabled_now st f =
  enabled_ignoring_spin st f
  &&
  match f.f_pend with
  | P_op (O_mem ((SI.Read | SI.Relax), _), _) -> f.f_spins < st.spin_limit
  | _ -> true

let footprint f : footprint =
  match f.f_pend with
  | P_done | P_parked _ | P_start _ -> []
  | P_reacquire (m, _) -> [ (m, true) ]
  | P_op (op, _) -> (
    match op with
    | O_mem ((SI.Read | SI.Relax), o) -> [ (o, false) ]
    | O_mem ((SI.Write | SI.Rmw), o) -> [ (o, true) ]
    | O_lock m | O_trylock m | O_unlock m -> [ (m, true) ]
    | O_wait (c, m) -> [ (c, true); (m, true) ]
    | O_signal c | O_broadcast c -> [ (c, true) ]
    | O_spawn _ | O_join _ -> [])

let enabled_list st =
  let acc = ref [] in
  for i = Dyn.length st.fibers - 1 downto 0 do
    if enabled_now st (get_fiber st i) then acc := i :: !acc
  done;
  !acc

(* ---------------------------------------------------------------- *)
(* Vector clocks, race detection, backtrack insertion.               *)

let clock_join dst src =
  for i = 0 to max_fibers - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let insert_backtrack st j p =
  if j >= 0 && j < Dyn.length st.nodes then begin
    let nd = Dyn.get st.nodes j in
    let add q =
      if
        (not (List.mem q nd.n_done))
        && (not (List.mem q nd.n_todo))
        && not (List.mem_assoc q nd.n_sleep)
      then nd.n_todo <- q :: nd.n_todo
    in
    if List.mem p nd.n_enabled then add p
    else
      (* Conservative F-G fallback: the racing fiber was not enabled in
         that pre-state, so schedule every alternative from it. *)
      List.iter add nd.n_enabled
  end

(* Race-detect one access and fold its happens-before edges into the
   fiber clock.  Reads depend on the last write; writes/rmws depend on
   the last write and every read since it. *)
let access st f (k : SI.kind) info =
  let p = f.f_id in
  let candidates =
    match k with
    | SI.Relax -> []
    | SI.Read -> ( match info.o_last_write with None -> [] | Some w -> [ w ])
    | SI.Write | SI.Rmw -> (
      match info.o_last_write with
      | None -> info.o_reads
      | Some w -> w :: info.o_reads)
  in
  List.iter
    (fun (j, q, cj) ->
      if q <> p && cj.(q) > f.f_clock.(q) then insert_backtrack st j p)
    candidates;
  List.iter (fun (_, _, cj) -> clock_join f.f_clock cj) candidates

let commit_access f (k : SI.kind) info step sclock =
  match k with
  | SI.Relax -> ()
  | SI.Read -> info.o_reads <- (step, f.f_id, sclock) :: info.o_reads
  | SI.Write | SI.Rmw -> (
    match info.o_tag with
    | 'm' | 'c' ->
      (* Blocking primitives keep their full access history as conflict
         candidates: acquisition *order* is the interleaving that
         matters (e.g. signaller-locks-first losing a wakeup), and the
         reordering point is an earlier lock, not just the latest
         release.  Op counts on a mutex are small, so O(n) candidates
         per op is fine. *)
      (match info.o_last_write with
      | Some w -> info.o_reads <- w :: info.o_reads
      | None -> ());
      info.o_last_write <- Some (step, f.f_id, sclock)
    | _ ->
      info.o_last_write <- Some (step, f.f_id, sclock);
      info.o_reads <- [])

(* One step = race detection, clock tick, object-clock commit. *)
let do_step_accesses st f pairs =
  List.iter (fun (k, info) -> access st f k info) pairs;
  f.f_clock.(f.f_id) <- f.f_clock.(f.f_id) + 1;
  let s = Array.copy f.f_clock in
  List.iter (fun (k, info) -> commit_access f k info st.steps s) pairs

let reset_all_spins st =
  for i = 0 to Dyn.length st.fibers - 1 do
    let f = get_fiber st i in
    f.f_spins <- 0;
    f.f_seen <- []
  done

let push_trace st line = st.trace <- line :: st.trace

(* ---------------------------------------------------------------- *)
(* Step execution.                                                   *)

let exec_op st f op resume =
  let p = f.f_id in
  let info id = Dyn.get st.objs id in
  match (op, resume) with
  | O_mem (k, o), R_unit c ->
    do_step_accesses st f [ (k, info o) ];
    (* Spin accounting: only *re-reading* an object already read since
       the last state change counts as spinning — a bounded scan over
       fresh objects never parks, a data-dependent retry loop does
       within one or two iterations. *)
    (match k with
    | SI.Read ->
      if List.mem o f.f_seen then f.f_spins <- f.f_spins + 1
      else f.f_seen <- o :: f.f_seen
    | SI.Relax -> f.f_spins <- f.f_spins + 1
    | SI.Write | SI.Rmw -> reset_all_spins st);
    push_trace st
      (Printf.sprintf "f%d: %s %s" p
         (match k with
         | SI.Read -> "read"
         | SI.Write -> "write"
         | SI.Rmw -> "rmw"
         | SI.Relax -> "relax")
         (oname st o));
    Effect.Deep.continue c ()
  | O_lock m, R_unit c ->
    let i = info m in
    assert (i.o_owner = None);
    do_step_accesses st f [ (SI.Rmw, i) ];
    i.o_owner <- Some p;
    reset_all_spins st;
    push_trace st (Printf.sprintf "f%d: lock %s" p (oname st m));
    Effect.Deep.continue c ()
  | O_trylock m, R_bool c ->
    let i = info m in
    do_step_accesses st f [ (SI.Rmw, i) ];
    let got = i.o_owner = None in
    if got then i.o_owner <- Some p;
    reset_all_spins st;
    push_trace st
      (Printf.sprintf "f%d: trylock %s -> %b" p (oname st m) got);
    Effect.Deep.continue c got
  | O_unlock m, R_unit c ->
    let i = info m in
    if i.o_owner <> Some p then
      raise
        (Abort
           (Lock_misuse
              (Printf.sprintf "f%d unlocked %s it does not hold" p
                 (oname st m))));
    do_step_accesses st f [ (SI.Rmw, i) ];
    i.o_owner <- None;
    reset_all_spins st;
    push_trace st (Printf.sprintf "f%d: unlock %s" p (oname st m));
    Effect.Deep.continue c ()
  | O_wait (co, m), R_unit c ->
    let ic = info co and im = info m in
    if im.o_owner <> Some p then
      raise
        (Abort
           (Lock_misuse
              (Printf.sprintf "f%d waits on %s without holding %s" p
                 (oname st co) (oname st m))));
    do_step_accesses st f [ (SI.Rmw, ic); (SI.Rmw, im) ];
    im.o_owner <- None;
    Queue.push p ic.o_waiters;
    reset_all_spins st;
    push_trace st
      (Printf.sprintf "f%d: wait %s/%s (parks)" p (oname st co) (oname st m));
    f.f_pend <- P_parked (co, m, c)
  | O_signal co, R_unit c ->
    let ic = info co in
    do_step_accesses st f [ (SI.Rmw, ic) ];
    (match Queue.take_opt ic.o_waiters with
    | Some q -> (
      let fq = get_fiber st q in
      match fq.f_pend with
      | P_parked (_, m, k) ->
        fq.f_pend <- P_reacquire (m, k);
        push_trace st
          (Printf.sprintf "f%d: signal %s (wakes f%d)" p (oname st co) q)
      | _ -> assert false)
    | None ->
      push_trace st
        (Printf.sprintf "f%d: signal %s (no waiter)" p (oname st co)));
    reset_all_spins st;
    Effect.Deep.continue c ()
  | O_broadcast co, R_unit c ->
    let ic = info co in
    do_step_accesses st f [ (SI.Rmw, ic) ];
    let woke = ref [] in
    Queue.iter
      (fun q ->
        let fq = get_fiber st q in
        match fq.f_pend with
        | P_parked (_, m, k) ->
          fq.f_pend <- P_reacquire (m, k);
          woke := q :: !woke
        | _ -> assert false)
      ic.o_waiters;
    Queue.clear ic.o_waiters;
    reset_all_spins st;
    push_trace st
      (Printf.sprintf "f%d: broadcast %s (wakes %s)" p (oname st co)
         (if !woke = [] then "nobody"
          else
            String.concat ","
              (List.rev_map (Printf.sprintf "f%d") !woke)));
    Effect.Deep.continue c ()
  | O_spawn fn, R_int c ->
    do_step_accesses st f [];
    let child = new_fiber st in
    Array.blit f.f_clock 0 child.f_clock 0 max_fibers;
    child.f_pend <- P_start fn;
    reset_all_spins st;
    push_trace st (Printf.sprintf "f%d: spawn -> f%d" p child.f_id);
    Effect.Deep.continue c child.f_id
  | O_join id, R_unit c -> (
    let ch = get_fiber st id in
    assert (is_done ch);
    do_step_accesses st f [];
    clock_join f.f_clock ch.f_clock;
    reset_all_spins st;
    match ch.f_error with
    | Some e when not ch.f_error_consumed ->
      ch.f_error_consumed <- true;
      push_trace st
        (Printf.sprintf "f%d: join f%d (re-raises %s)" p id
           (Printexc.to_string e));
      Effect.Deep.discontinue c e
    | _ ->
      push_trace st (Printf.sprintf "f%d: join f%d" p id);
      Effect.Deep.continue c ())
  | _ -> assert false

let run_step st f =
  match f.f_pend with
  | P_done | P_parked _ -> assert false
  | P_start fn ->
    f.f_spins <- 0;
    push_trace st (Printf.sprintf "f%d: start" f.f_id);
    Effect.Deep.match_with fn () (fiber_handler st f)
  | P_reacquire (m, k) ->
    let i = Dyn.get st.objs m in
    assert (i.o_owner = None);
    do_step_accesses st f [ (SI.Rmw, i) ];
    i.o_owner <- Some f.f_id;
    reset_all_spins st;
    push_trace st (Printf.sprintf "f%d: reacquire %s" f.f_id (oname st m));
    Effect.Deep.continue k ()
  | P_op (op, resume) -> exec_op st f op resume

(* ---------------------------------------------------------------- *)
(* One execution: replay the node stack's chosen prefix, then default *)
(* policy (stay on the current fiber, else lowest id), pushing a node *)
(* per fresh step.                                                   *)

let run_one ~fn ~nodes ~replay ~forced ~max_steps ~spin_limit =
  let st =
    {
      fibers = Dyn.create dummy_fiber;
      objs = Dyn.create dummy_obj;
      nodes;
      steps = 0;
      trace = [];
      schedule = [];
      cur = 0;
      spin_limit;
      max_steps;
    }
  in
  let main = new_fiber st in
  main.f_pend <- P_start fn;
  SI.set_active true;
  let finish r =
    SI.set_active false;
    (st, r)
  in
  try
    let rec loop depth =
      let en = enabled_list st in
      if en = [] then begin
        let all_done = ref true and spinning = ref false in
        for i = 0 to Dyn.length st.fibers - 1 do
          let f = get_fiber st i in
          if not (is_done f) then begin
            all_done := false;
            if enabled_ignoring_spin st f then spinning := true
          end
        done;
        if !all_done then begin
          (* Unjoined raised fibers are silent crashes: violations. *)
          let bad = ref None in
          for i = 0 to Dyn.length st.fibers - 1 do
            let f = get_fiber st i in
            match f.f_error with
            | Some e when not f.f_error_consumed && !bad = None ->
              bad :=
                Some
                  (Assertion
                     (Printf.sprintf "f%d died: %s" i (Printexc.to_string e)))
            | _ -> ()
          done;
          match !bad with None -> Ok () | Some k -> Error k
        end
        else if !spinning then Error Livelock
        else Error Deadlock
      end
      else begin
        let choice =
          match forced with
          | Some sched when depth < Array.length sched -> sched.(depth)
          | Some _ ->
            if List.mem st.cur en then st.cur else List.hd en
          | None ->
            if depth < replay then (Dyn.get nodes depth).n_chosen
            else begin
              (* Fibers explored before the parent's choice, or asleep
                 there, stay asleep while their next step commutes
                 with the one just run. *)
              let sleep =
                if depth = 0 then []
                else
                  let parent = Dyn.get nodes (depth - 1) in
                  let c = parent.n_chosen in
                  let fc = List.assoc c parent.n_steps in
                  List.filter
                    (fun (q, fq) -> q <> c && not (dependent fq fc))
                    (parent.n_sleep
                    @ List.map
                        (fun q -> (q, List.assoc q parent.n_steps))
                        parent.n_done)
              in
              match
                List.filter (fun q -> not (List.mem_assoc q sleep)) en
              with
              | [] -> raise_notrace Sleep_blocked
              | awake ->
                let c = if List.mem st.cur awake then st.cur else List.hd awake in
                Dyn.push nodes
                  {
                    n_enabled = en;
                    n_steps =
                      List.map (fun q -> (q, footprint (get_fiber st q))) en;
                    n_sleep = sleep;
                    n_chosen = c;
                    n_done = [ c ];
                    n_todo = [];
                  };
                c
            end
        in
        if not (List.mem choice en) then
          failwith
            (Printf.sprintf
               "ctg_race: schedule diverged at step %d (fiber %d not \
                enabled) — harness is nondeterministic"
               depth choice);
        st.cur <- choice;
        st.schedule <- choice :: st.schedule;
        run_step st (get_fiber st choice);
        st.steps <- st.steps + 1;
        if st.steps > max_steps then Error Too_long else loop (depth + 1)
      end
    in
    finish (loop 0)
  with
  | Abort k -> finish (Error k)
  | Sleep_blocked -> finish (Ok ())
  | e ->
    SI.set_active false;
    raise e

(* ---------------------------------------------------------------- *)
(* Public driver.                                                    *)

type stats = { execs : int; steps : int; max_depth : int }

type violation = {
  v_kind : vkind;
  v_schedule : int list;
  v_trace : string list;
  v_execs : int;
}

type outcome = Passed of stats | Budget_exceeded of stats | Flagged of violation

let check ?(max_execs = 100_000) ?(max_steps = 20_000) ?(spin_limit = 8) fn =
  let nodes = Dyn.create dummy_node in
  let execs = ref 0 and total = ref 0 and maxd = ref 0 in
  let rec go replay =
    incr execs;
    let st, res =
      run_one ~fn ~nodes ~replay ~forced:None ~max_steps ~spin_limit
    in
    total := !total + st.steps;
    if st.steps > !maxd then maxd := st.steps;
    match res with
    | Error k ->
      Flagged
        {
          v_kind = k;
          v_schedule = List.rev st.schedule;
          v_trace = List.rev st.trace;
          v_execs = !execs;
        }
    | Ok () -> (
      let rec find d =
        if d < 0 then None
        else
          let nd = Dyn.get nodes d in
          match
            List.find_opt (fun q -> not (List.mem q nd.n_done)) nd.n_todo
          with
          | Some q -> Some (d, q)
          | None -> find (d - 1)
      in
      match find (Dyn.length nodes - 1) with
      | None -> Passed { execs = !execs; steps = !total; max_depth = !maxd }
      | Some (d, q) ->
        Dyn.truncate nodes (d + 1);
        let nd = Dyn.get nodes d in
        nd.n_chosen <- q;
        nd.n_done <- q :: nd.n_done;
        nd.n_todo <- List.filter (fun x -> x <> q) nd.n_todo;
        if !execs >= max_execs then
          Budget_exceeded { execs = !execs; steps = !total; max_depth = !maxd }
        else go (d + 1))
  in
  go 0

let replay ?(max_steps = 20_000) ?(spin_limit = 8) fn schedule =
  let nodes = Dyn.create dummy_node in
  let st, res =
    run_one ~fn ~nodes ~replay:0
      ~forced:(Some (Array.of_list schedule))
      ~max_steps ~spin_limit
  in
  let trace = List.rev st.trace in
  match res with
  | Ok () -> (None, trace)
  | Error k -> (Some k, trace)

let schedule_to_string s = String.concat "," (List.map string_of_int s)

let schedule_of_string s =
  String.split_on_char ',' s
  |> List.filter (fun x -> String.trim x <> "")
  |> List.map (fun x -> int_of_string (String.trim x))

(* Runtime_events consumer: real per-domain GC pause spans folded into
   the registry/trace plumbing.  See rtev.mli for the design notes. *)

open Ctg_sync.Shim
module Obs = Ctg_obs
module RE = Runtime_events

(* ------------------------------------------------------------------ *)
(* Pure decoder                                                        *)
(* ------------------------------------------------------------------ *)

module Decode = struct
  type cls = Gc | Minor | Excluded

  type pause = {
    ring : int;
    start_ns : int;
    dur_ns : int;
    minor : bool;
    phase : string;
  }

  (* Per-ring decode state.  Runtime phases nest; only the depth-0 frame
     carries timing. *)
  type frame = {
    mutable depth : int;
    mutable t0 : int;
    mutable phase : string;
    mutable minor_seen : bool;
    mutable excluded : bool;
  }

  type t = { frames : (int, frame) Hashtbl.t }

  let create () = { frames = Hashtbl.create 8 }

  let classify (ph : RE.runtime_phase) =
    match ph with
    | RE.EV_MINOR | RE.EV_MINOR_LOCAL_ROOTS | RE.EV_MINOR_FINALIZED
    | RE.EV_MINOR_CLEAR | RE.EV_MINOR_FINALIZERS_OLDIFY
    | RE.EV_MINOR_GLOBAL_ROOTS | RE.EV_MINOR_LEAVE_BARRIER
    | RE.EV_MINOR_FINALIZERS_ADMIN | RE.EV_MINOR_REMEMBERED_SET
    | RE.EV_MINOR_REMEMBERED_SET_PROMOTE | RE.EV_MINOR_LOCAL_ROOTS_PROMOTE
    | RE.EV_EXPLICIT_GC_MINOR ->
      Minor
    (* An idle domain parks in a condition wait; Gc.set is a settings
       call.  Both are top-level runtime phases but not mutator pauses. *)
    | RE.EV_DOMAIN_CONDITION_WAIT | RE.EV_EXPLICIT_GC_SET -> Excluded
    | _ -> Gc

  let frame t ring =
    match Hashtbl.find_opt t.frames ring with
    | Some f -> f
    | None ->
      let f =
        { depth = 0; t0 = 0; phase = ""; minor_seen = false; excluded = false }
      in
      Hashtbl.add t.frames ring f;
      f

  let on_begin t ~ring ~ts_ns ~phase ~cls =
    let f = frame t ring in
    if f.depth = 0 then begin
      f.t0 <- ts_ns;
      f.phase <- phase;
      f.minor_seen <- cls = Minor;
      f.excluded <- cls = Excluded
    end
    else if cls = Minor then f.minor_seen <- true;
    f.depth <- f.depth + 1

  let on_end t ~ring ~ts_ns =
    let f = frame t ring in
    (* depth 0: an end without a begin — the begin predates the cursor or
       was discarded by on_lost.  Can't time it truthfully; drop. *)
    if f.depth = 0 then None
    else begin
      f.depth <- f.depth - 1;
      if f.depth > 0 || f.excluded then None
      else
        let dur_ns = ts_ns - f.t0 in
        if dur_ns <= 0 then None
        else
          Some { ring; start_ns = f.t0; dur_ns; minor = f.minor_seen; phase = f.phase }
    end

  let on_lost t ~ring =
    let f = frame t ring in
    f.depth <- 0;
    f.excluded <- false;
    f.minor_seen <- false
end

(* ------------------------------------------------------------------ *)
(* Consumer state                                                      *)
(* ------------------------------------------------------------------ *)

type ring_handles = {
  h_pause : Obs.Registry.histo;
  h_minor : Obs.Registry.histo;
  h_count : Obs.Registry.counter;
}

type agg_handles = {
  g_pause : Obs.Registry.histo;
  g_minor : Obs.Registry.histo;
  g_lost : Obs.Registry.counter;
  g_breach : Obs.Registry.counter;
  g_max : Obs.Registry.gauge;
}

type state = {
  mu : Mutex.t;
  mutable ring_started : bool;  (* RE.start has succeeded in this process *)
  mutable suspended : bool;
  mutable active : bool;
  mutable cursor : RE.cursor option;
  mutable callbacks : RE.Callbacks.t option;
  mutable registry : Obs.Registry.t;
  mutable trace : bool;
  mutable offset_ns : int option;  (* Obs clock - runtime clock *)
  mutable decode : Decode.t;
  mutable handles : (int * ring_handles) list;
  mutable agg : agg_handles option;
  mutable pending_trace : Decode.pause list;  (* pauses awaiting the offset *)
  mutable budget_ns : int option;
  mutable rid_source : (unit -> string option) option;
  mutable pause_observer : (Decode.pause -> unit) option;
  mutable poller : unit Domain.t option;
  poller_stop : bool Atomic.t;
  (* Readable without the lock (trace pause source, /metrics glue). *)
  c_total : int Atomic.t;
  c_count : int Atomic.t;
  c_minor : int Atomic.t;
  c_max : int Atomic.t;
  c_breach : int Atomic.t;
}

let st =
  {
    mu = Mutex.create ();
    ring_started = false;
    suspended = false;
    active = false;
    cursor = None;
    callbacks = None;
    registry = Obs.Registry.default;
    trace = false;
    offset_ns = None;
    decode = Decode.create ();
    handles = [];
    agg = None;
    pending_trace = [];
    budget_ns = None;
    rid_source = None;
    pause_observer = None;
    poller = None;
    poller_stop = Atomic.make false;
    c_total = Atomic.make 0;
    c_count = Atomic.make 0;
    c_minor = Atomic.make 0;
    c_max = Atomic.make 0;
    c_breach = Atomic.make 0;
  }

(* Custom-event tag: [Ctg_clock_sync] carries an Obs.Clock timestamp to
   solve the monotonic-vs-epoch clock offset. *)
type RE.User.tag += Ctg_clock_sync

let sync_event = lazy (RE.User.register "ctg.sync" Ctg_clock_sync RE.Type.int)

let ts_to_ns ts = Int64.to_int (RE.Timestamp.to_int64 ts)

(* ---------------- metric handles (lazily per ring) ----------------- *)

let agg_handles () =
  match st.agg with
  | Some h -> h
  | None ->
    let r = st.registry in
    let h =
      {
        g_pause = Obs.Registry.histo r "gc_pause_ns";
        g_minor = Obs.Registry.histo r "gc_minor_pause_ns";
        g_lost = Obs.Registry.counter r "rtev_lost_events_total";
        g_breach = Obs.Registry.counter r "gc_pause_budget_breaches_total";
        g_max = Obs.Registry.gauge r "gc_max_pause_ns";
      }
    in
    st.agg <- Some h;
    h

let ring_handles ring =
  match List.assoc_opt ring st.handles with
  | Some h -> h
  | None ->
    let r = st.registry in
    let labels = [ ("domain", string_of_int ring) ] in
    let h =
      {
        h_pause = Obs.Registry.histo r ~labels "gc_pause_ns";
        h_minor = Obs.Registry.histo r ~labels "gc_minor_pause_ns";
        h_count = Obs.Registry.counter r ~labels "gc_pauses_total";
      }
    in
    st.handles <- (ring, h) :: st.handles;
    h

(* ---------------- pause handling (under st.mu) --------------------- *)

let inject_pause (p : Decode.pause) offset =
  Obs.Trace.inject
    {
      Obs.Trace.name = "gc:" ^ p.phase;
      cat = "gc";
      ph = Obs.Trace.Complete;
      ts_ns = p.start_ns + offset;
      dur_ns = p.dur_ns;
      tid = 1000 + p.ring;
      id = -1;
      args =
        [
          ("ring", string_of_int p.ring);
          ("class", if p.minor then "minor" else "major");
        ];
    }

let handle_pause (p : Decode.pause) =
  Atomic.set st.c_total (Atomic.get st.c_total + p.dur_ns);
  Atomic.set st.c_count (Atomic.get st.c_count + 1);
  if p.minor then Atomic.set st.c_minor (Atomic.get st.c_minor + 1);
  if p.dur_ns > Atomic.get st.c_max then Atomic.set st.c_max p.dur_ns;
  let agg = agg_handles () in
  let h = ring_handles p.ring in
  let rid =
    match st.rid_source with
    | None -> ""
    | Some f -> ( match f () with Some rid -> rid | None -> "")
  in
  Obs.Registry.observe_exemplar agg.g_pause p.dur_ns rid;
  Obs.Registry.observe h.h_pause p.dur_ns;
  Obs.Registry.incr h.h_count;
  if p.minor then begin
    Obs.Registry.observe agg.g_minor p.dur_ns;
    Obs.Registry.observe h.h_minor p.dur_ns
  end;
  Obs.Registry.set_gauge agg.g_max (float_of_int (Atomic.get st.c_max));
  (match st.budget_ns with
  | Some b when p.dur_ns > b ->
    Atomic.set st.c_breach (Atomic.get st.c_breach + 1);
    Obs.Registry.incr agg.g_breach
  | _ -> ());
  if st.trace then begin
    match st.offset_ns with
    | Some off -> inject_pause p off
    | None -> st.pending_trace <- p :: st.pending_trace
  end;
  match st.pause_observer with Some f -> f p | None -> ()

let make_callbacks () =
  let cb =
    RE.Callbacks.create
      ~runtime_begin:(fun ring ts phase ->
        Decode.on_begin st.decode ~ring ~ts_ns:(ts_to_ns ts)
          ~phase:(RE.runtime_phase_name phase)
          ~cls:(Decode.classify phase))
      ~runtime_end:(fun ring ts _phase ->
        match Decode.on_end st.decode ~ring ~ts_ns:(ts_to_ns ts) with
        | Some p -> handle_pause p
        | None -> ())
      ~lost_events:(fun ring n ->
        Decode.on_lost st.decode ~ring;
        Obs.Registry.add (agg_handles ()).g_lost n)
      ()
  in
  (* Clock sync: payload is Obs.Clock.now_ns at write time; the event's
     own timestamp is the runtime clock — their difference is the offset
     trace injection needs. *)
  RE.Callbacks.add_user_event RE.Type.int
    (fun _ring ts user v ->
      match RE.User.tag user with
      | Ctg_clock_sync -> st.offset_ns <- Some (v - ts_to_ns ts)
      | _ -> ())
    cb

(* ---------------- polling ------------------------------------------ *)

(* Requires st.mu.  [max] caps the events read; by default a poll reads
   until it has caught up with every ring. *)
let poll_locked ?max () =
  match (st.cursor, st.callbacks) with
  | Some cursor, Some cb ->
    (try RE.User.write (Lazy.force sync_event) (Obs.Clock.now_ns ())
     with _ -> ());
    let n = try RE.read_poll cursor cb max with _ -> 0 in
    (match (st.offset_ns, st.pending_trace) with
    | Some off, (_ :: _ as pending) ->
      List.iter (fun p -> inject_pause p off) (List.rev pending);
      st.pending_trace <- []
    | _ -> ());
    n
  | _ -> 0

let poll () =
  if not st.active then 0
  else begin
    Mutex.lock st.mu;
    let n = poll_locked () in
    Mutex.unlock st.mu;
    n
  end

(* The opportunistic poll runs on the caller's domain (a serving batch,
   a traced span), so it reads a bounded slice and leaves the rest to the
   poller.  Read unbounded, it keeps reading while the rings refill: in
   a daemon of a dozen-plus domains on 2 CPUs one batch was held
   100-360 ms. *)
let opportunistic_max = 1024

let pause_source_value () =
  if st.active && Mutex.try_lock st.mu then begin
    ignore (poll_locked ~max:opportunistic_max ());
    Mutex.unlock st.mu
  end;
  Atomic.get st.c_total

let install_trace_pause_source () =
  Obs.Trace.set_pause_source (Some pause_source_value)

(* ---------------- lifecycle ---------------------------------------- *)

let ensure_ring_started () =
  if not st.ring_started then begin
    RE.start ();
    st.ring_started <- true
  end
  else if st.suspended then begin
    (try RE.resume () with _ -> ());
    st.suspended <- false
  end

let start ?registry ?(trace = false) () =
  Mutex.lock st.mu;
  let ok =
    try
      ensure_ring_started ();
      (match st.cursor with
      | Some _ -> ()
      | None -> st.cursor <- Some (RE.create_cursor None));
      (match registry with
      | Some r ->
        if r != st.registry then begin
          (* Rebinding registries (a fresh daemon in the same process)
             invalidates the cached metric handles. *)
          st.registry <- r;
          st.agg <- None;
          st.handles <- []
        end
      | None -> ());
      st.trace <- trace;
      (match st.callbacks with
      | Some _ -> ()
      | None ->
        st.callbacks <- Some (make_callbacks ()));
      ignore (agg_handles ());
      st.active <- true;
      ignore (poll_locked ());
      true
    with _ -> false
  in
  Mutex.unlock st.mu;
  ok

let active () = st.active

let start_poller ?(interval_s = 0.05) () =
  Mutex.lock st.mu;
  (match st.poller with
  | Some _ -> ()
  | None ->
    Atomic.set st.poller_stop false;
    st.poller <-
      Some
        (Domain.spawn (fun () ->
             while not (Atomic.get st.poller_stop) do
               ignore (poll ());
               Unix.sleepf interval_s
             done)));
  Mutex.unlock st.mu

let stop () =
  (* Join the poller before taking the lock for teardown: its poll loop
     needs st.mu. *)
  let poller =
    Mutex.lock st.mu;
    let p = st.poller in
    st.poller <- None;
    Mutex.unlock st.mu;
    p
  in
  (match poller with
  | Some d ->
    Atomic.set st.poller_stop true;
    Domain.join d
  | None -> ());
  Mutex.lock st.mu;
  ignore (poll_locked ());
  (match st.cursor with
  | Some c ->
    (try RE.free_cursor c with _ -> ());
    st.cursor <- None
  | None -> ());
  st.callbacks <- None;
  st.active <- false;
  if st.ring_started && not st.suspended then begin
    (try RE.pause () with _ -> ());
    st.suspended <- true
  end;
  Mutex.unlock st.mu

(* ---------------- accessors ---------------------------------------- *)

let pause_count () = Atomic.get st.c_count
let minor_pause_count () = Atomic.get st.c_minor
let total_pause_ns () = Atomic.get st.c_total
let max_pause_ns () = Atomic.get st.c_max
let budget_breaches () = Atomic.get st.c_breach

let reset_stats () =
  Mutex.lock st.mu;
  Atomic.set st.c_total 0;
  Atomic.set st.c_count 0;
  Atomic.set st.c_minor 0;
  Atomic.set st.c_max 0;
  Atomic.set st.c_breach 0;
  Mutex.unlock st.mu

let set_rid_source src =
  Mutex.lock st.mu;
  st.rid_source <- src;
  Mutex.unlock st.mu

let set_pause_budget_ns b =
  Mutex.lock st.mu;
  st.budget_ns <- b;
  Mutex.unlock st.mu

let set_pause_observer obs =
  Mutex.lock st.mu;
  st.pause_observer <- obs;
  Mutex.unlock st.mu

(* ---------------- overhead-bench toggles --------------------------- *)

let suspend_collection () =
  Mutex.lock st.mu;
  if st.ring_started && not st.suspended then begin
    (try RE.pause () with _ -> ());
    st.suspended <- true
  end;
  Mutex.unlock st.mu

let resume_collection () =
  Mutex.lock st.mu;
  if st.ring_started && st.suspended then begin
    (try RE.resume () with _ -> ());
    st.suspended <- false
  end;
  Mutex.unlock st.mu

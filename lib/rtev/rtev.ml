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

(* A window registered by [charge], on the Obs clock. *)
type window = { w_start : int; w_end : int; k : int -> unit }

let ledger_cap = 16384

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
  (* The latest sync event's number and the Obs time it was written. *)
  mutable sync_seq : int;
  mutable sync_obs : int;
  mutable decode : Decode.t;
  mutable handles : (int * ring_handles) list;
  mutable agg : agg_handles option;
  mutable budget_ns : int option;
  mutable fresh : Decode.pause list;  (* decoded by the running poll *)
  (* The last [ledger_cap] pause intervals [start, end) on the runtime
     clock, each poll's merged where they overlap. *)
  ledger : (int * int) Queue.t;
  (* Runtime time of the latest poll's start: every pause that ended
     before it is in the ledger. *)
  mutable horizon_ns : int;
  (* Windows waiting for a poll past their end.  [pend_mu] only guards
     pushes and swaps, so [charge] never waits on a poll's read. *)
  pend_mu : Mutex.t;
  mutable pending : window list;
  mutable poller : unit Domain.t option;
  poller_stop : bool Atomic.t;
  (* Readable without the lock (/metrics glue). *)
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
    sync_seq = 0;
    sync_obs = 0;
    decode = Decode.create ();
    handles = [];
    agg = None;
    budget_ns = None;
    fresh = [];
    ledger = Queue.create ();
    horizon_ns = min_int;
    pend_mu = Mutex.create ();
    pending = [];
    poller = None;
    poller_stop = Atomic.make false;
    c_total = Atomic.make 0;
    c_count = Atomic.make 0;
    c_minor = Atomic.make 0;
    c_max = Atomic.make 0;
    c_breach = Atomic.make 0;
  }

let locked f =
  Mutex.lock st.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mu) f

(* Custom-event tag: [Ctg_clock_sync] marks the runtime time at which a
   poll read the Obs clock, to solve the monotonic-vs-epoch offset.  Its
   payload is the poll's number, not the Obs time: the ring keeps only
   32 bits of an int payload, and Obs time passes 2^31 ns 2.1 s after
   start. *)
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
  st.fresh <- p :: st.fresh;
  let agg = agg_handles () in
  let h = ring_handles p.ring in
  Obs.Registry.observe agg.g_pause p.dur_ns;
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
  | _ -> ())

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
  (* Clock sync: the poll read Obs.Clock just before writing the event;
     the event's own timestamp is the runtime clock — their difference is
     the offset trace injection and [charge] need.  The poll wrote the
     event before reading any ring, so its timestamp is also the ledger's
     horizon. *)
  RE.Callbacks.add_user_event RE.Type.int
    (fun _ring ts user v ->
      match RE.User.tag user with
      | Ctg_clock_sync when v = st.sync_seq ->
        let ts = ts_to_ns ts in
        st.offset_ns <- Some (st.sync_obs - ts);
        st.horizon_ns <- max st.horizon_ns ts
      | _ -> ())
    cb

(* ---------------- polling and charging (under st.mu) -------------- *)

(* Reads until it has caught up with every ring, then moves the pauses
   it decoded to the trace (once the clock offset is known) and, merged
   where they overlap, to the ledger. *)
let poll_locked () =
  match (st.cursor, st.callbacks) with
  | Some cursor, Some cb ->
    st.sync_seq <- (st.sync_seq + 1) land 0xffff;
    st.sync_obs <- Obs.Clock.now_ns ();
    (try RE.User.write (Lazy.force sync_event) st.sync_seq with _ -> ());
    let n = try RE.read_poll cursor cb None with _ -> 0 in
    let fresh = List.rev st.fresh in
    st.fresh <- [];
    (match st.offset_ns with
    | Some off when st.trace -> List.iter (fun p -> inject_pause p off) fresh
    | _ -> ());
    let merged =
      List.fold_left
        (fun acc (s, e) ->
          match acc with
          | (s0, e0) :: tl when s <= e0 -> (s0, max e e0) :: tl
          | _ -> (s, e) :: acc)
        []
        (List.sort compare
           (List.map
              (fun (p : Decode.pause) -> (p.start_ns, p.start_ns + p.dur_ns))
              fresh))
    in
    List.iter
      (fun iv ->
        Queue.push iv st.ledger;
        if Queue.length st.ledger > ledger_cap then
          ignore (Queue.pop st.ledger))
      (List.rev merged);
    n
  | _ -> 0

(* The length of the union of the ledger's intervals clipped to [lo, hi):
   intervals that overlap, as those of two polls can, count once.
   [near] holds the candidates, sorted by start. *)
let covered near ~lo ~hi =
  snd
    (List.fold_left
       (fun (reach, acc) (s, e) ->
         let s = max s reach and e = min e hi in
         if e > s then (e, acc + e - s) else (reach, acc))
       (lo, 0) near)

(* Charge the windows the horizon has passed ([all]: every window),
   oldest first.  Running [k] under st.mu means a poll that returns has
   charged every window it passed.  Without a clock offset no window can
   be placed on the ledger: it gets 0. *)
let settle ~all =
  let off = Option.value st.offset_ns ~default:0 in
  Mutex.lock st.pend_mu;
  let ready, waiting =
    List.partition
      (fun w -> all || (st.offset_ns <> None && w.w_end - off <= st.horizon_ns))
      st.pending
  in
  st.pending <- waiting;
  Mutex.unlock st.pend_mu;
  (* One ledger scan for the span of every ready window. *)
  let lo = List.fold_left (fun m w -> min m (w.w_start - off)) max_int ready
  and hi = List.fold_left (fun m w -> max m (w.w_end - off)) min_int ready in
  let near =
    if ready = [] || st.offset_ns = None then []
    else
      Queue.fold
        (fun acc (s, e) -> if s < hi && e > lo then (s, e) :: acc else acc)
        [] st.ledger
      |> List.sort compare
  in
  List.iter
    (fun w ->
      try w.k (covered near ~lo:(w.w_start - off) ~hi:(w.w_end - off))
      with _ -> ())
    (List.rev ready)

(* The unlocked read keeps an inactive consumer free for every profiled
   span.  [stop] clears [active] before its last take of [pending], so a
   window pushed after that take is refused, not stranded. *)
let charge ~start_ns ~end_ns k =
  if st.active then begin
    Mutex.lock st.pend_mu;
    if st.active then
      st.pending <- { w_start = start_ns; w_end = end_ns; k } :: st.pending;
    Mutex.unlock st.pend_mu
  end

let poll () =
  if not st.active then 0
  else
    locked (fun () ->
        let n = poll_locked () in
        settle ~all:false;
        n)

(* ---------------- lifecycle ---------------------------------------- *)

(* [Runtime_events.pause]/[resume]: whether the runtime writes to the
   ring (the overhead bench's "off" arm; [stop] pauses it too). *)
let set_suspended on =
  if st.ring_started && st.suspended <> on then begin
    (try if on then RE.pause () else RE.resume () with _ -> ());
    st.suspended <- on
  end

let ensure_ring_started () =
  if not st.ring_started then begin
    RE.start ();
    st.ring_started <- true
  end
  else set_suspended false

let start ?registry ?(trace = false) () =
  locked (fun () ->
      try
        ensure_ring_started ();
        if Option.is_none st.cursor then
          st.cursor <- Some (RE.create_cursor None);
        (match registry with
        | Some r when r != st.registry ->
          (* Rebinding registries (a fresh daemon in the same process)
             invalidates the cached metric handles. *)
          st.registry <- r;
          st.agg <- None;
          st.handles <- []
        | _ -> ());
        st.trace <- trace;
        if Option.is_none st.callbacks then
          st.callbacks <- Some (make_callbacks ());
        ignore (agg_handles ());
        st.active <- true;
        ignore (poll_locked ());
        true
      with _ -> false)

let active () = st.active

let start_poller ?(interval_s = 0.05) () =
  locked (fun () ->
      if Option.is_none st.poller then begin
        Atomic.set st.poller_stop false;
        st.poller <-
          Some
            (Domain.spawn (fun () ->
                 while not (Atomic.get st.poller_stop) do
                   ignore (poll ());
                   Unix.sleepf interval_s
                 done))
      end)

let stop () =
  (* Join the poller before taking the lock for teardown: its poll loop
     needs st.mu. *)
  let poller =
    locked (fun () ->
        let p = st.poller in
        st.poller <- None;
        p)
  in
  (match poller with
  | Some d ->
    Atomic.set st.poller_stop true;
    Domain.join d
  | None -> ());
  Mutex.lock st.mu;
  ignore (poll_locked ());
  st.active <- false;
  settle ~all:true;
  (match st.cursor with
  | Some c ->
    (try RE.free_cursor c with _ -> ());
    st.cursor <- None
  | None -> ());
  st.callbacks <- None;
  set_suspended true;
  Mutex.unlock st.mu

(* ---------------- accessors ---------------------------------------- *)

let pause_count () = Atomic.get st.c_count
let minor_pause_count () = Atomic.get st.c_minor
let total_pause_ns () = Atomic.get st.c_total
let max_pause_ns () = Atomic.get st.c_max
let budget_breaches () = Atomic.get st.c_breach

let reset_stats () =
  locked (fun () ->
      List.iter
        (fun c -> Atomic.set c 0)
        [ st.c_total; st.c_count; st.c_minor; st.c_max; st.c_breach ])

let set_pause_budget_ns b = locked (fun () -> st.budget_ns <- b)

let suspend_collection () = locked (fun () -> set_suspended true)
let resume_collection () = locked (fun () -> set_suspended false)

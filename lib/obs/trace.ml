open Ctg_sync.Shim

type phase = Complete | Instant | Flow_start | Flow_step | Flow_end

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_ns : int;
  dur_ns : int;
  tid : int;
  id : int;
  args : (string * string) list;
}

(* Single-writer ring with an index-attributed reader protocol, verified
   under the ctg_race model checker (harness `trace_ring`).

   Indices count events ever written; slot [i] lives at [i mod capacity].
   The pre-PR-7 protocol published only [head] (bumped after the slot
   write) and let a reader racing a wrap misattribute a *newer* event to
   an old index — the documented "accepted tracing race".  The window is
   closed by a second counter: [reserved] is bumped past [i] *before*
   slot [i mod cap] is rewritten, so a reader that loads [reserved]
   *after* gathering can discard exactly the indices whose slot may have
   been overwritten mid-read (they become drops, never misattributed).
   Slot cells are atomic so the checker sees every access; each holds a
   whole immutable record. *)
module Ring = struct
  type 'a t = {
    r_slots : 'a option Atomic.t array;
    r_reserved : int Atomic.t;  (* bumped before the slot write *)
    r_head : int Atomic.t;  (* bumped after: published prefix *)
  }

  let create cap =
    if cap < 1 then invalid_arg "Trace.Ring.create: capacity must be >= 1";
    {
      r_slots = Array.init cap (fun _ -> Atomic.make None);
      r_reserved = Atomic.make 0;
      r_head = Atomic.make 0;
    }

  let capacity r = Array.length r.r_slots
  let head r = Atomic.get r.r_head

  (* Owner domain only. *)
  let push r v =
    let i = Atomic.get r.r_head in
    Atomic.set r.r_reserved (i + 1);
    Atomic.set r.r_slots.(i mod Array.length r.r_slots) (Some v);
    Atomic.set r.r_head (i + 1)

  (* Any domain.  Returns (oldest-first [(index, value)] whose
     attribution is certain, dropped-event count). *)
  let read r =
    let cap = Array.length r.r_slots in
    let h = Atomic.get r.r_head in
    let lo = max 0 (h - cap) in
    let gathered = ref [] in
    for i = h - 1 downto lo do
      match Atomic.get r.r_slots.(i mod cap) with
      | Some v -> gathered := (i, v) :: !gathered
      | None -> ()
    done;
    (* Loaded after the gather loop: slot [i] is only rewritten by push
       [i + cap], which bumps reserved past [i + cap] first — so any
       index still >= reserved - cap was read unraced. *)
    let res = Atomic.get r.r_reserved in
    let live = List.filter (fun (i, _) -> i >= res - cap) !gathered in
    let drops = lo + (List.length !gathered - List.length live) in
    (live, drops)

  let reset r =
    Atomic.set r.r_head 0;
    Atomic.set r.r_reserved 0;
    Array.iter (fun c -> Atomic.set c None) r.r_slots
end

type ring = {
  tid : int;
  ring : event Ring.t;
}

let enabled = Atomic.make false
let default_capacity = Atomic.make 16384

let rings : ring list ref = ref []
  [@@race.guarded "rings_mutex"]

let rings_mutex = Mutex.create ()

let dls_key : ring option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let ring_for_self () =
  let cell = Domain.DLS.get dls_key in
  match !cell with
  | Some r -> r
  | None ->
    let r =
      {
        tid = (Domain.self () :> int);
        ring = Ring.create (Atomic.get default_capacity);
      }
    in
    Mutex.lock rings_mutex;
    rings := r :: !rings;
    Mutex.unlock rings_mutex;
    cell := Some r;
    r

let record ev =
  let r = ring_for_self () in
  Ring.push r.ring ev

let inject ev = if Atomic.get enabled then record ev

let enable ?capacity () =
  (match capacity with
  | Some c ->
    if c < 1 then invalid_arg "Trace.enable: capacity must be >= 1";
    Atomic.set default_capacity c
  | None -> ());
  Atomic.set enabled true

let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let reset () =
  Mutex.lock rings_mutex;
  List.iter (fun r -> Ring.reset r.ring) !rings;
  Mutex.unlock rings_mutex

let eval_args = function None -> [] | Some f -> f ()

(* Allocation capture: when [gc_capture] is set (and tracing is enabled —
   the disabled fast path stays one atomic load), every span additionally
   samples [Gc.counters] on entry and exit and appends the per-domain
   word deltas to its args.  The counters are per-domain and monotonic,
   and a span starts and finishes on the same domain, so the deltas are
   non-negative by construction.  [gc_observer] is the hook the ctg_prof
   aggregation layer installs; it runs on the recording domain. *)
let gc_capture = Atomic.make false

type gc_observer =
  name:string -> minor:float -> promoted:float -> major:float ->
  start_ns:int -> dur_ns:int -> unit

let gc_observer : gc_observer option Atomic.t = Atomic.make None

let set_gc_capture on = Atomic.set gc_capture on
let set_gc_observer obs = Atomic.set gc_observer obs

let words w = Printf.sprintf "%.0f" w

let with_span ?(cat = "ctg") ?args name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let gc = Atomic.get gc_capture in
    let m0, p0, j0 = if gc then Gc.counters () else (0.0, 0.0, 0.0) in
    let t0 = Clock.now_ns () in
    let finish () =
      let dur_ns = Clock.now_ns () - t0 in
      let gc_args =
        if not gc then []
        else begin
          let m1, p1, j1 = Gc.counters () in
          let minor = m1 -. m0 and promoted = p1 -. p0 and major = j1 -. j0 in
          (match Atomic.get gc_observer with
          | Some obs -> obs ~name ~minor ~promoted ~major ~start_ns:t0 ~dur_ns
          | None -> ());
          [
            ("alloc_minor_words", words minor);
            ("alloc_promoted_words", words promoted);
            ("alloc_major_words", words major);
          ]
        end
      in
      record
        {
          name;
          cat;
          ph = Complete;
          ts_ns = t0;
          dur_ns;
          tid = (Domain.self () :> int);
          id = -1;
          args = eval_args args @ gc_args;
        }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let instant ?(cat = "ctg") ?args name =
  if Atomic.get enabled then
    record
      {
        name;
        cat;
        ph = Instant;
        ts_ns = Clock.now_ns ();
        dur_ns = -1;
        tid = (Domain.self () :> int);
        id = -1;
        args = eval_args args;
      }

(* Flow events: the causal arrows binding a request span to the batch and
   per-domain chunk/sign spans that serve it.  Chrome/Perfetto attach a
   flow event to the slice enclosing its timestamp on the same track, so
   emit these *inside* the relevant [with_span] thunk; events sharing an
   [id] (and name/cat) are drawn as one arrow chain. *)
let flow_event ph ?(cat = "flow") ?args ~id name =
  if Atomic.get enabled then
    record
      {
        name;
        cat;
        ph;
        ts_ns = Clock.now_ns ();
        dur_ns = 0;
        tid = (Domain.self () :> int);
        id;
        args = eval_args args;
      }

let flow_start ?cat ?args ~id name = flow_event Flow_start ?cat ?args ~id name
let flow_step ?cat ?args ~id name = flow_event Flow_step ?cat ?args ~id name
let flow_end ?cat ?args ~id name = flow_event Flow_end ?cat ?args ~id name

let snapshot_rings () =
  Mutex.lock rings_mutex;
  let rs = !rings in
  Mutex.unlock rings_mutex;
  rs

let collect () =
  let acc = ref [] and drops = ref 0 in
  List.iter
    (fun r ->
      let live, d = Ring.read r.ring in
      drops := !drops + d;
      List.iter (fun (_, ev) -> acc := ev :: !acc) live)
    (snapshot_rings ());
  (!acc, !drops)

let events () =
  let evs, _ = collect () in
  List.sort
    (fun a b ->
      match compare a.ts_ns b.ts_ns with
      | 0 -> ( match compare a.tid b.tid with 0 -> compare a.name b.name | c -> c)
      | c -> c)
    evs

let dropped () = snd (collect ())

let event_to_json ev =
  let base =
    [
      ("name", Jsonx.Str ev.name);
      ("cat", Jsonx.Str ev.cat);
      ("pid", Jsonx.Num 1.0);
      ("tid", Jsonx.Num (float_of_int ev.tid));
      ("ts", Jsonx.Num (float_of_int ev.ts_ns /. 1e3));
    ]
  in
  let flow ph extra =
    ("ph", Jsonx.Str ph) :: ("id", Jsonx.Num (float_of_int ev.id)) :: extra
  in
  let phase =
    match ev.ph with
    | Instant -> [ ("ph", Jsonx.Str "i"); ("s", Jsonx.Str "t") ]
    | Complete ->
      [ ("ph", Jsonx.Str "X"); ("dur", Jsonx.Num (float_of_int ev.dur_ns /. 1e3)) ]
    | Flow_start -> flow "s" []
    | Flow_step -> flow "t" []
    | Flow_end ->
      (* bp:"e" binds the arrow head to the *enclosing* slice rather than
         the next slice to start on the track. *)
      flow "f" [ ("bp", Jsonx.Str "e") ]
  in
  let args =
    match ev.args with
    | [] -> []
    | kvs -> [ ("args", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Str v)) kvs)) ]
  in
  Jsonx.Obj (base @ phase @ args)

let export_events ?(dropped = 0) evs =
  let evs =
    List.sort
      (fun a b ->
        match compare a.ts_ns b.ts_ns with
        | 0 -> ( match compare a.tid b.tid with 0 -> compare a.name b.name | c -> c)
        | c -> c)
      evs
  in
  Jsonx.Obj
    [
      ("traceEvents", Jsonx.List (List.map event_to_json evs));
      ("displayTimeUnit", Jsonx.Str "ms");
      ("ctg_dropped_events", Jsonx.Num (float_of_int dropped));
    ]

let export () =
  let evs, drops = collect () in
  export_events ~dropped:drops evs

let write path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Jsonx.to_string (export ()));
      output_char oc '\n')

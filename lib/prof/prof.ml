(* The allocation/GC profiling layer: glue between the tracer's per-span
   Gc.counters capture (Trace.set_gc_capture / set_gc_observer) and a
   human-usable report — span labels ranked by words allocated.  GC
   pauses come from the Runtime_events consumer (Ctg_rtev): each span's
   window is charged from its pause ledger once a poll has passed it.

   All state is one process-global singleton under a mutex: the observer
   runs on whichever domain completes a span, and the report runs on the
   caller's. *)

open Ctg_sync.Shim
module Obs = Ctg_obs
module Rtev = Ctg_rtev.Rtev
module Jsonx = Obs.Jsonx

type row = {
  label : string;
  spans : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  total_ns : int;
  pause_ns : int;
}

type agg = {
  mutable a_spans : int;
  mutable a_minor : float;
  mutable a_promoted : float;
  mutable a_major : float;
  mutable a_ns : int;
  mutable a_pause : int;
}

type state = {
  mu : Mutex.t;
  table : (string, agg) Hashtbl.t;
  mutable active : bool;
}

let st = { mu = Mutex.create (); table = Hashtbl.create 16; active = false }

let observer ~name ~minor ~promoted ~major ~start_ns ~dur_ns =
  Mutex.lock st.mu;
  let a =
    match Hashtbl.find_opt st.table name with
    | Some a -> a
    | None ->
      let a =
        {
          a_spans = 0;
          a_minor = 0.0;
          a_promoted = 0.0;
          a_major = 0.0;
          a_ns = 0;
          a_pause = 0;
        }
      in
      Hashtbl.replace st.table name a;
      a
  in
  a.a_spans <- a.a_spans + 1;
  a.a_minor <- a.a_minor +. minor;
  a.a_promoted <- a.a_promoted +. promoted;
  a.a_major <- a.a_major +. major;
  a.a_ns <- a.a_ns + dur_ns;
  Mutex.unlock st.mu;
  (* The charge lands on this record even after a [reset] has dropped it
     from the table, so a row never holds more pause than span time. *)
  Rtev.charge ~start_ns ~end_ns:(start_ns + dur_ns) (fun ns ->
      Mutex.lock st.mu;
      a.a_pause <- a.a_pause + ns;
      Mutex.unlock st.mu)

let enable ?registry ?(rtev = false) () =
  Mutex.lock st.mu;
  if st.active then Mutex.unlock st.mu
  else begin
    st.active <- true;
    Mutex.unlock st.mu;
    Obs.Trace.enable ();
    Obs.Trace.set_gc_capture true;
    Obs.Trace.set_gc_observer (Some observer);
    if rtev then ignore (Rtev.start ?registry ~trace:true () : bool)
  end

let disable () =
  Mutex.lock st.mu;
  if not st.active then Mutex.unlock st.mu
  else begin
    st.active <- false;
    Mutex.unlock st.mu;
    Obs.Trace.set_gc_capture false;
    Obs.Trace.set_gc_observer None
  end

let active () =
  Mutex.lock st.mu;
  let a = st.active in
  Mutex.unlock st.mu;
  a

let reset () =
  Mutex.lock st.mu;
  Hashtbl.reset st.table;
  Mutex.unlock st.mu

let report () =
  Mutex.lock st.mu;
  let rows =
    Hashtbl.fold
      (fun label a acc ->
        {
          label;
          spans = a.a_spans;
          minor_words = a.a_minor;
          promoted_words = a.a_promoted;
          major_words = a.a_major;
          total_ns = a.a_ns;
          pause_ns = a.a_pause;
        }
        :: acc)
      st.table []
  in
  Mutex.unlock st.mu;
  List.sort
    (fun a b ->
      match compare b.minor_words a.minor_words with
      | 0 -> compare a.label b.label
      | c -> c)
    rows

let row_to_json r =
  Jsonx.Obj
    [
      ("label", Jsonx.Str r.label);
      ("spans", Jsonx.Num (float_of_int r.spans));
      ("minor_words", Jsonx.Num r.minor_words);
      ("promoted_words", Jsonx.Num r.promoted_words);
      ("major_words", Jsonx.Num r.major_words);
      ("total_ns", Jsonx.Num (float_of_int r.total_ns));
      ("pause_ns", Jsonx.Num (float_of_int r.pause_ns));
      ("work_ns", Jsonx.Num (float_of_int (r.total_ns - r.pause_ns)));
      ( "words_per_span",
        Jsonx.Num
          (if r.spans = 0 then 0.0
           else r.minor_words /. float_of_int r.spans) );
    ]

let report_json () =
  Jsonx.Obj
    [
      ("profile", Jsonx.Str "alloc-by-span");
      ("rows", Jsonx.List (List.map row_to_json (report ())));
    ]

let pp_row fmt r =
  Format.fprintf fmt
    "%-12s %6d spans  %12.0f minor  %10.0f promoted  %10.0f major words  \
     %8.0f words/span  %9d pause ns"
    r.label r.spans r.minor_words r.promoted_words r.major_words
    (if r.spans = 0 then 0.0 else r.minor_words /. float_of_int r.spans)
    r.pause_ns

let pp_report fmt () =
  List.iter (fun r -> Format.fprintf fmt "%a@." pp_row r) (report ())

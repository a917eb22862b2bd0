open Ctg_sync.Shim

type labels = (string * string) list

(* The outer Atomic is the reset indirection: handles survive a reset, the
   cell behind them is swapped.  Updates racing a reset may hit the old
   cell and be dropped with it — readers are protected by the seqlock. *)
type counter = int Atomic.t Atomic.t
type gauge = float Atomic.t Atomic.t

(* [h_ex] are the histogram's exemplars: the ids (request ids, in the
   serving path) of the largest observations seen since the last reset,
   value-descending — the link from a p99 outlier in /metrics to its
   trace.  Kept tiny and updated under the same mutex as the cell. *)
type histo = {
  h_mutex : Mutex.t;
  mutable cell : Histo.t;
  mutable h_ex : (int * string) list;
}

let max_exemplars = 4

(* [D] is a gauge computed from other metrics when it is read. *)
type metric = C of counter | G of gauge | H of histo | D of (unit -> float)
type kind = Kcounter | Kgauge | Khisto

type t = {
  mutex : Mutex.t;  (* guards table, kinds and the reset sequence *)
  gen : int Atomic.t;  (* seqlock: odd while a reset is swapping cells *)
  table : (string * labels, metric) Hashtbl.t;
  kinds : (string, kind) Hashtbl.t;
}

let create () =
  {
    mutex = Mutex.create ();
    gen = Atomic.make 0;
    table = Hashtbl.create 32;
    kinds = Hashtbl.create 16;
  }

let default = create ()

let canon_labels labels =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then invalid_arg ("Registry: duplicate label key " ^ a);
      check rest
    | _ -> ()
  in
  check sorted;
  sorted

let kind_name = function Kcounter -> "counter" | Kgauge -> "gauge" | Khisto -> "histogram"

let find_or_create t name labels kind make unpack =
  let labels = canon_labels labels in
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.kinds name with
  | Some k when k <> kind ->
    Mutex.unlock t.mutex;
    invalid_arg
      (Printf.sprintf "Registry: %s already registered as a %s" name (kind_name k))
  | _ ->
    let m =
      match Hashtbl.find_opt t.table (name, labels) with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.replace t.table (name, labels) m;
        Hashtbl.replace t.kinds name kind;
        m
    in
    Mutex.unlock t.mutex;
    (* The kinds table leaves one mismatch: a plain and a derived gauge. *)
    (match unpack m with
    | Some v -> v
    | None -> invalid_arg ("Registry: " ^ name ^ " is a derived gauge"))

let counter t ?(labels = []) name =
  find_or_create t name labels Kcounter
    (fun () -> C (Atomic.make (Atomic.make 0)))
    (function C c -> Some c | _ -> None)

let alias_counter t ?(labels = []) name (c : counter) =
  let found =
    find_or_create t name labels Kcounter
      (fun () -> C c)
      (function C c -> Some c | _ -> None)
  in
  if found != c then
    invalid_arg ("Registry.alias_counter: " ^ name ^ " holds another counter")

let add (c : counter) n = ignore (Atomic.fetch_and_add (Atomic.get c) n)
let incr c = add c 1
let value (c : counter) = Atomic.get (Atomic.get c)

let gauge t ?(labels = []) name =
  find_or_create t name labels Kgauge
    (fun () -> G (Atomic.make (Atomic.make 0.0)))
    (function G g -> Some g | _ -> None)

let derived_gauge t ?(labels = []) name f =
  find_or_create t name labels Kgauge
    (fun () -> D f)
    (function D _ -> Some () | _ -> None)

let set_gauge (g : gauge) v = Atomic.set (Atomic.get g) v
let gauge_value (g : gauge) = Atomic.get (Atomic.get g)

let histo t ?(labels = []) name =
  find_or_create t name labels Khisto
    (fun () -> H { h_mutex = Mutex.create (); cell = Histo.create (); h_ex = [] })
    (function H h -> Some h | _ -> None)

let observe (h : histo) v =
  Mutex.lock h.h_mutex;
  Histo.add h.cell v;
  Mutex.unlock h.h_mutex

let rec take n = function
  | [] -> []
  | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl

let observe_exemplar (h : histo) v id =
  Mutex.lock h.h_mutex;
  Histo.add h.cell v;
  if id <> "" then begin
    (* Insert-sorted, value-descending, recency breaking ties — so the
       retained set is always the current maxima and a repeated max keeps
       its newest id first. *)
    let ex = (v, id) :: h.h_ex in
    let ex = List.stable_sort (fun (a, _) (b, _) -> compare b a) ex in
    h.h_ex <- take max_exemplars ex
  end;
  Mutex.unlock h.h_mutex

let exemplars (h : histo) =
  Mutex.lock h.h_mutex;
  let ex = h.h_ex in
  Mutex.unlock h.h_mutex;
  ex

let histo_summary (h : histo) =
  Mutex.lock h.h_mutex;
  let s = Histo.summary h.cell in
  Mutex.unlock h.h_mutex;
  s

let reset t =
  Mutex.lock t.mutex;
  Atomic.incr t.gen (* odd: readers back off *);
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> Atomic.set c (Atomic.make 0)
      | G g -> Atomic.set g (Atomic.make 0.0)
      | D _ -> ()
      | H h ->
        Mutex.lock h.h_mutex;
        h.cell <- Histo.create ();
        h.h_ex <- [];
        Mutex.unlock h.h_mutex)
    t.table;
  Atomic.incr t.gen;
  Mutex.unlock t.mutex

let generation t = Atomic.get t.gen / 2

let rec read_consistent t f =
  let g1 = Atomic.get t.gen in
  if g1 land 1 = 1 then begin
    Domain.cpu_relax ();
    read_consistent t f
  end
  else begin
    let v = f () in
    if Atomic.get t.gen = g1 then v else read_consistent t f
  end

(* ---------------------------------------------------------------- *)
(* Exposition                                                        *)
(* ---------------------------------------------------------------- *)

let sorted_entries t =
  Mutex.lock t.mutex;
  let entries = Hashtbl.fold (fun k m acc -> (k, m) :: acc) t.table [] in
  Mutex.unlock t.mutex;
  List.sort (fun ((na, la), _) ((nb, lb), _) -> compare (na, la) (nb, lb)) entries

let metric_kind = function
  | C _ -> Kcounter
  | G _ | D _ -> Kgauge
  | H _ -> Khisto

let escape_label v =
  let buf = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let labels_text = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)
    ^ "}"

let num_text f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let expose_text t =
  let entries = sorted_entries t in
  read_consistent t (fun () ->
      let buf = Buffer.create 1024 in
      let last_name = ref "" in
      List.iter
        (fun ((name, labels), m) ->
          if name <> !last_name then begin
            Buffer.add_string buf
              (Printf.sprintf "# TYPE %s %s\n" name (kind_name (metric_kind m)));
            last_name := name
          end;
          let l = labels_text labels in
          match m with
          | C c -> Buffer.add_string buf (Printf.sprintf "%s%s %d\n" name l (value c))
          | G g ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" name l (num_text (gauge_value g)))
          | D f ->
            Buffer.add_string buf (Printf.sprintf "%s%s %s\n" name l (num_text (f ())))
          | H h ->
            let s = histo_summary h in
            List.iter
              (fun (suffix, v) ->
                Buffer.add_string buf (Printf.sprintf "%s_%s%s %d\n" name suffix l v))
              [
                ("count", s.Histo.count);
                ("sum", s.Histo.sum);
                ("min", s.Histo.min);
                ("max", s.Histo.max);
                ("p50", s.Histo.p50);
                ("p90", s.Histo.p90);
                ("p99", s.Histo.p99);
              ])
        entries;
      Buffer.contents buf)

let to_json t =
  let entries = sorted_entries t in
  read_consistent t (fun () ->
      let metric ((name, labels), m) =
        let base =
          [
            ("name", Jsonx.Str name);
            ("type", Jsonx.Str (kind_name (metric_kind m)));
            ("labels", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Str v)) labels));
          ]
        in
        let payload =
          match m with
          | C c -> [ ("value", Jsonx.Num (float_of_int (value c))) ]
          | G g -> [ ("value", Jsonx.Num (gauge_value g)) ]
          | D f -> [ ("value", Jsonx.Num (f ())) ]
          | H h ->
            let s = histo_summary h in
            let ex = exemplars h in
            let fields =
              [
                ("count", Jsonx.Num (float_of_int s.Histo.count));
                ("sum", Jsonx.Num (float_of_int s.Histo.sum));
                ("mean", Jsonx.Num s.Histo.mean);
                ("min", Jsonx.Num (float_of_int s.Histo.min));
                ("max", Jsonx.Num (float_of_int s.Histo.max));
                ("p50", Jsonx.Num (float_of_int s.Histo.p50));
                ("p90", Jsonx.Num (float_of_int s.Histo.p90));
                ("p99", Jsonx.Num (float_of_int s.Histo.p99));
              ]
            in
            let fields =
              if ex = [] then fields
              else
                fields
                @ [
                    ( "exemplars",
                      Jsonx.List
                        (List.map
                           (fun (v, id) ->
                             Jsonx.Obj
                               [
                                 ("value", Jsonx.Num (float_of_int v));
                                 ("id", Jsonx.Str id);
                               ])
                           ex) );
                  ]
            in
            [ ("histogram", Jsonx.Obj fields) ]
        in
        Jsonx.Obj (base @ payload)
      in
      Jsonx.Obj [ ("metrics", Jsonx.List (List.map metric entries)) ])

open Ctg_sync.Shim
module Obs = Ctg_obs

type key = {
  sigma : string;
  precision : int;
  tail_cut : int;
}

(* [Building] marks an in-flight compile: the key is claimed but the
   sampler is not ready.  Waiters sleep on [cond] and re-check. *)
type entry = Ready of Ctgauss.Sampler.t | Building

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  table : (key, entry) Hashtbl.t;
  mutable compiles : int;
}

let create () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create 8;
    compiles = 0;
  }

let global = create ()

let lookup t ?(self_test = true) ~sigma ~precision ~tail_cut () =
  let key = { sigma; precision; tail_cut } in
  Mutex.lock t.mutex;
  let rec claim () =
    match Hashtbl.find_opt t.table key with
    | Some (Ready s) ->
      Mutex.unlock t.mutex;
      `Done s
    | Some Building ->
      Condition.wait t.cond t.mutex;
      claim ()
    | None ->
      Hashtbl.replace t.table key Building;
      Mutex.unlock t.mutex;
      `Compile
  in
  match claim () with
  | `Done s -> s
  | `Compile -> (
    (* Compile outside the lock so unrelated keys stay responsive. *)
    match
      Obs.Trace.with_span "registry_compile" ~cat:"engine"
        ~args:(fun () -> [ ("sigma", sigma); ("precision", string_of_int precision) ])
        (fun () -> Ctgauss.Sampler.create ~sigma ~precision ~tail_cut ())
    with
    | s -> (
      (* Bind the build-time kernel of this exact program, if any, before
         the self-test, so the KAT runs the code that will serve. *)
      let s =
        match Ctg_kernels.Kernels.find (Ctgauss.Sampler.digest s) with
        | Some k -> Ctgauss.Sampler.with_kernel s k
        | None -> s
      in
      (* Gate the cache on the KAT: a sampler that disagrees with the
         reference walk must never become the shared master.  Run outside
         the lock (it costs ~a compile's epsilon but is not free). *)
      match if self_test then Selftest.check s with
      | () ->
        Mutex.lock t.mutex;
        t.compiles <- t.compiles + 1;
        Hashtbl.replace t.table key (Ready s);
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        s
      | exception e ->
        Mutex.lock t.mutex;
        Hashtbl.remove t.table key;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        raise e)
    | exception e ->
      (* Release the claim so a later lookup can retry. *)
      Mutex.lock t.mutex;
      Hashtbl.remove t.table key;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      raise e)

let revalidate ?strings t =
  (* Snapshot the Ready entries under the lock, KAT them outside it (the
     walk over 512 vectors is too slow to hold every lookup for), then
     evict failures under the lock.  The eviction re-checks physical
     equality so a concurrent recompile that already replaced the entry is
     left alone, and it reuses the single-flight protocol: after removal
     the next lookup claims [Building], so however many callers race the
     eviction, exactly one recompile runs. *)
  Mutex.lock t.mutex;
  let ready =
    Hashtbl.fold
      (fun key entry acc ->
        match entry with Ready s -> (key, s) :: acc | Building -> acc)
      t.table []
  in
  Mutex.unlock t.mutex;
  let failed =
    List.filter_map
      (fun (key, s) ->
        match Selftest.run ?strings s with
        | Ok () -> None
        | Error f -> Some (key, s, f))
      ready
  in
  List.filter_map
    (fun (key, s, f) ->
      Mutex.lock t.mutex;
      let evicted =
        match Hashtbl.find_opt t.table key with
        | Some (Ready s') when s' == s ->
          Hashtbl.remove t.table key;
          Condition.broadcast t.cond;
          true
        | _ -> false
      in
      Mutex.unlock t.mutex;
      if evicted then Some (key, f) else None)
    failed

let size t =
  Mutex.lock t.mutex;
  let n =
    Hashtbl.fold
      (fun _ entry acc -> match entry with Ready _ -> acc + 1 | Building -> acc)
      t.table 0
  in
  Mutex.unlock t.mutex;
  n

let compiles t =
  Mutex.lock t.mutex;
  let n = t.compiles in
  Mutex.unlock t.mutex;
  n

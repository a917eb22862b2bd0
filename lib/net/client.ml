(* Minimal HTTP/1.1 client over one keep-alive connection: what
   [ctg_serve client], the serve bench and the tests use to talk to the
   daemon without shelling out to curl. *)

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

type t = { fd : Unix.file_descr; host : string; mutable pending : string }

let connect ?(host = "127.0.0.1") ?timeout ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     (match timeout with
     | Some s when s > 0.0 ->
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
     | Some _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
     | None -> ());
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  { fd; host; pending = "" }

let close t = try Unix.close t.fd with _ -> ()

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let pos = ref 0 in
  while !pos < n do
    match Unix.write fd b !pos (n - !pos) with
    | 0 -> failwith "Client: short write"
    | written -> pos := !pos + written
  done

let refill t =
  let chunk = Bytes.create 4096 in
  match Unix.read t.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
    t.pending <- t.pending ^ Bytes.sub_string chunk 0 n;
    true

let take t n =
  let s = String.sub t.pending 0 n in
  t.pending <- String.sub t.pending n (String.length t.pending - n);
  s

let read_until t pat =
  let find () =
    let p = t.pending and n = String.length t.pending in
    let m = String.length pat in
    let rec go i =
      if i + m > n then None
      else if String.sub p i m = pat then Some i
      else go (i + 1)
    in
    go 0
  in
  let rec loop () =
    match find () with
    | Some i -> Some i
    | None -> if refill t then loop () else None
  in
  loop ()

let read_exactly t n =
  let rec loop () =
    if String.length t.pending >= n then take t n
    else if refill t then loop ()
    else failwith "Client: connection closed mid-body"
  in
  loop ()

let parse_headers block =
  String.split_on_char '\n' block
  |> List.filter_map (fun l ->
         let l =
           let n = String.length l in
           if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
         in
         match String.index_opt l ':' with
         | None -> None
         | Some i ->
           Some
             ( String.lowercase_ascii (String.trim (String.sub l 0 i)),
               String.trim (String.sub l (i + 1) (String.length l - i - 1)) ))

let request t ?(headers = []) ?body ~meth ~path () =
  let body = Option.value body ~default:"" in
  let extra =
    List.fold_left
      (fun acc (k, v) -> acc ^ Printf.sprintf "%s: %s\r\n" k v)
      "" headers
  in
  let content =
    if body = "" && meth = "GET" then ""
    else Printf.sprintf "Content-Length: %d\r\n" (String.length body)
  in
  write_all t.fd
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: %s\r\n%s%s\r\n%s" meth path t.host
       extra content body);
  (* Status line. *)
  let status =
    match read_until t "\r\n" with
    | None -> failwith "Client: no status line"
    | Some i -> (
      let line = take t (i + 2) in
      match String.split_on_char ' ' line with
      | _http :: code :: _ -> (
        match int_of_string_opt code with
        | Some c -> c
        | None -> failwith ("Client: bad status line " ^ line))
      | _ -> failwith ("Client: bad status line " ^ line))
  in
  (* Header block. *)
  let hdrs =
    match read_until t "\r\n\r\n" with
    | None -> failwith "Client: truncated headers"
    | Some i ->
      let block = take t (i + 4) in
      parse_headers (String.sub block 0 i)
  in
  let body =
    match List.assoc_opt "content-length" hdrs with
    | Some v -> read_exactly t (int_of_string (String.trim v))
    | None ->
      (* No length: the server will close the connection after the body. *)
      let rec drain () = if refill t then drain () in
      drain ();
      take t (String.length t.pending)
  in
  { status; headers = hdrs; body }

let one_shot ?host ~port ?headers ?body ~meth ~path () =
  let t = connect ?host ~port () in
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () -> request t ?headers ?body ~meth ~path ())

let get ?host ~port path = one_shot ?host ~port ~meth:"GET" ~path ()

let post ?host ~port ?body path =
  one_shot ?host ~port ?body ~meth:"POST" ~path ()

(* ------------------------------------------------------------------ *)
(* Retry layer: bounded exponential backoff with jitter and a deadline,
   around connect.                                                     *)
(* ------------------------------------------------------------------ *)

type retry_policy = {
  max_attempts : int;
  base_delay : float;
  max_delay : float;
  deadline : float option;
  jitter : attempt:int -> cap:float -> float;
  sleep : float -> unit;
}

(* Equal jitter: half the backoff step is guaranteed, half randomized so
   concurrent clients retrying after one daemon hiccup desynchronize.
   Deliberately unseeded — retry timing is operational, never part of a
   reproducible verdict — and stateless, so concurrent domains race on
   nothing.  Tests pin the seam instead. *)
let default_jitter ~attempt ~cap =
  let frac =
    float_of_int (Hashtbl.hash (attempt, Unix.gettimeofday ()) land 0xffff)
    /. 65536.0
  in
  (cap /. 2.0) +. (cap /. 2.0 *. frac)

let default_policy =
  {
    max_attempts = 3;
    base_delay = 0.05;
    max_delay = 1.0;
    deadline = Some 5.0;
    jitter = default_jitter;
    sleep = Unix.sleepf;
  }

(* Transport failures are worth retrying: the daemon may be mid-restart
   or shedding connections.  Anything else (bad arguments, out of
   descriptors) is not transient.  A received HTTP response — any
   status, including 503 — is never retried here: a 503 from /healthz is
   the answer, not a failure. *)
let transient = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.EPIPE
        | Unix.ETIMEDOUT | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
        | Unix.ENETUNREACH | Unix.EHOSTUNREACH ),
        _,
        _ ) ->
    true
  | _ -> false

let backoff_cap p attempt =
  Float.min p.max_delay (p.base_delay *. (2.0 ** float_of_int (attempt - 1)))

(* Connect up to [max_attempts] times.  The time left on the deadline
   is each attempt's socket send/receive timeout, and it also bounds the
   backoff sleeps, so a call never outlives [deadline] by more than one
   socket timeout. *)
let connect_retry ?(policy = default_policy) ?host ~port () =
  let p = policy in
  let deadline_at =
    Option.map (fun d -> Unix.gettimeofday () +. d) p.deadline
  in
  let remaining () =
    Option.map (fun d -> d -. Unix.gettimeofday ()) deadline_at
  in
  if p.max_attempts < 1 then invalid_arg "Client: max_attempts < 1";
  let rec attempt n =
    (match remaining () with
    | Some r when r <= 0.0 -> failwith "Client: request deadline exceeded"
    | _ -> ());
    try connect ?host ?timeout:(remaining ()) ~port ()
    with e when n < p.max_attempts && transient e ->
      let d = p.jitter ~attempt:n ~cap:(backoff_cap p n) in
      let d =
        match remaining () with
        | Some r -> Float.min d (Float.max 0.0 r)
        | None -> d
      in
      p.sleep d;
      attempt (n + 1)
  in
  attempt 1

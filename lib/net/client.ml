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

(* Connect up to 3 times, retrying only transport failures: the daemon
   may be mid-restart or shedding connections.  A received HTTP response
   (any status, 503 included) is never retried here.  Backoff sleeps
   50 ms, then 100 ms; the time left on a 5 s deadline is each attempt's
   socket send/receive timeout and also bounds the sleeps, so a call
   never outlives the deadline by more than one socket timeout. *)
let connect_retry ?host ~port () =
  let max_attempts = 3 and base_delay = 0.05 in
  let deadline_at = Unix.gettimeofday () +. 5.0 in
  let remaining () = deadline_at -. Unix.gettimeofday () in
  let transient = function
    | Unix.Unix_error
        ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.EPIPE
          | Unix.ETIMEDOUT | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
          | Unix.ENETUNREACH | Unix.EHOSTUNREACH ),
          _,
          _ ) ->
      true
    | _ -> false
  in
  let rec attempt n =
    if remaining () <= 0.0 then failwith "Client: request deadline exceeded";
    try connect ?host ~timeout:(remaining ()) ~port ()
    with e when n < max_attempts && transient e ->
      Unix.sleepf
        (Float.min (base_delay *. (2.0 ** float_of_int (n - 1)))
           (Float.max 0.0 (remaining ())));
      attempt (n + 1)
  in
  attempt 1

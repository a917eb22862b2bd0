(* Shared HTTP/1.1 server: grown out of the metrics scraper into the
   request path both the exposition endpoint and the ctg_serve signing
   daemon stand on.  Still stdlib-[Unix] only: a bounded accept queue feeds
   a small team of worker domains, each handling one connection at a time
   with keep-alive, Content-Length and chunked request bodies, and a
   graceful drain on stop. *)

open Ctg_sync.Shim

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;
  body : string;
}

let response ?(status = 200) ?(content_type = "text/plain; charset=utf-8")
    ?(headers = []) body =
  { status; content_type; headers; body }

(* ---------------------------------------------------------------- *)
(* Request ids                                                       *)
(* ---------------------------------------------------------------- *)

(* Every request carries an id: the client's [X-Request-Id] when it sent
   a well-formed one, a generated one otherwise.  The id is inserted
   into [req.headers] before the handler runs and echoed on *every*
   response this connection writes — including 400/413 parse failures
   and the handler's own 429/503 error bodies — so a shed or failed
   request stays joinable to its trace. *)
let request_id_header = "x-request-id"

let rid_seq = Atomic.make 0

(* Eager module-level init (no [lazy]: not domain-safe under OCaml 5).
   The prefix makes ids from successive daemon processes distinct. *)
let rid_prefix =
  Printf.sprintf "%04x%04x"
    (Unix.getpid () land 0xffff)
    (Hashtbl.hash (Unix.gettimeofday ()) land 0xffff)

let gen_request_id () =
  Printf.sprintf "r-%s-%06x" rid_prefix (Atomic.fetch_and_add rid_seq 1)

let valid_request_id s =
  let n = String.length s in
  n >= 1 && n <= 64
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true | _ -> false)
       s

let request_id (req : request) =
  match List.assoc_opt request_id_header req.headers with
  | Some id -> id
  | None -> ""

(* The id of a parsed head, when the client sent a usable one. *)
let claimed_request_id (req : request) =
  match List.assoc_opt request_id_header req.headers with
  | Some id when valid_request_id id -> Some id
  | _ -> None

let ensure_request_id (req : request) =
  match claimed_request_id req with
  | Some id -> (id, req)
  | None ->
    let id = gen_request_id () in
    (* Shadow any malformed client value: [header] lookups find the
       accepted id first. *)
    (id, { req with headers = (request_id_header, id) :: req.headers })

let with_request_id id resp =
  if
    List.exists
      (fun (k, _) -> String.lowercase_ascii k = request_id_header)
      resp.headers
  then resp
  else { resp with headers = ("X-Request-Id", id) :: resp.headers }

type handler = request -> response

type route = string * (unit -> response)

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

(* ---------------------------------------------------------------- *)
(* Request-line / header / query parsing                             *)
(* ---------------------------------------------------------------- *)

let percent_decode s =
  let b = Buffer.create (String.length s) in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char b ' '
    | '%' when !i + 2 < n -> (
      match (hex s.[!i + 1], hex s.[!i + 2]) with
      | Some h, Some l ->
        Buffer.add_char b (Char.chr ((h lsl 4) lor l));
        i := !i + 2
      | _ -> Buffer.add_char b '%')
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_query q =
  if q = "" then []
  else
    String.split_on_char '&' q
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | None -> Some (percent_decode kv, "")
             | Some i ->
               Some
                 ( percent_decode (String.sub kv 0 i),
                   percent_decode
                     (String.sub kv (i + 1) (String.length kv - i - 1)) ))

let query_param req key = List.assoc_opt key req.query

let split_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some i ->
    ( String.sub target 0 i,
      parse_query (String.sub target (i + 1) (String.length target - i - 1)) )

let header (req : request) name =
  List.assoc_opt (String.lowercase_ascii name) req.headers

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
    let name = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
    let value =
      String.trim (String.sub line (i + 1) (String.length line - i - 1))
    in
    if name = "" then None else Some (name, value)

(* [head] is the request head (request line + headers, no terminator).
   Returns the parsed request with an empty body, plus the HTTP version. *)
let parse_head head =
  let lines =
    String.split_on_char '\n' head
    |> List.map (fun l ->
           let n = String.length l in
           if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l)
  in
  match lines with
  | [] -> Error "empty request head"
  | request_line :: header_lines -> (
    match String.split_on_char ' ' request_line with
    | [ meth; target; version ]
      when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
      let path, query = split_target target in
      let headers = List.filter_map parse_header_line header_lines in
      Ok
        ( { meth = String.uppercase_ascii meth; path; query; headers; body = "" },
          version )
    | _ -> Error "malformed request line")

(* ---------------------------------------------------------------- *)
(* Routing (the legacy GET-only route table)                         *)
(* ---------------------------------------------------------------- *)

let guard f =
  try f ()
  with e ->
    response ~status:500
      (Printf.sprintf "handler error: %s\n" (Printexc.to_string e))

let handler_of_routes (routes : route list) : handler =
 fun req ->
  if req.meth <> "GET" then
    response ~status:405 (Printf.sprintf "method %s not allowed\n" req.meth)
  else
    match List.assoc_opt req.path routes with
    | None -> response ~status:404 (Printf.sprintf "no route for %s\n" req.path)
    | Some f -> guard f

let handle ~routes path =
  let path, _query = split_target path in
  match List.assoc_opt path routes with
  | None -> response ~status:404 (Printf.sprintf "no route for %s\n" path)
  | Some f -> guard f

let handle_request ~routes raw =
  let head =
    (* Everything up to the blank line; tolerate bare-\n framing. *)
    let len = String.length raw in
    let rec find i =
      if i + 1 >= len then len
      else if
        raw.[i] = '\n'
        && (raw.[i + 1] = '\n'
           || (i + 2 < len && raw.[i + 1] = '\r' && raw.[i + 2] = '\n'))
      then i
      else find (i + 1)
    in
    String.sub raw 0 (find 0)
  in
  match parse_head head with
  | Error e -> response ~status:400 (e ^ "\n")
  | Ok (req, _version) -> handler_of_routes routes req

(* ---------------------------------------------------------------- *)
(* Connection I/O                                                    *)
(* ---------------------------------------------------------------- *)

let max_head_bytes = 16 * 1024
let default_max_body = 1024 * 1024

(* A connection buffer: bytes already read but not yet consumed (keep-alive
   leaves the next pipelined request here). *)
type connbuf = { fd : Unix.file_descr; mutable pending : string }

let refill cb =
  let chunk = Bytes.create 4096 in
  match Unix.read cb.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
    cb.pending <- cb.pending ^ Bytes.sub_string chunk 0 n;
    true
  | exception _ -> false

let take cb n =
  let s = String.sub cb.pending 0 n in
  cb.pending <- String.sub cb.pending n (String.length cb.pending - n);
  s

(* Read until [cb.pending] contains [pat]; the offset of the pattern, or
   None on EOF or when [limit] bytes arrived without it. *)
let read_until cb pat ~limit =
  let find () =
    let p = cb.pending and n = String.length cb.pending in
    let m = String.length pat in
    let rec go i =
      if i + m > n then None else if String.sub p i m = pat then Some i else go (i + 1)
    in
    go 0
  in
  let rec loop () =
    match find () with
    | Some i -> Some i
    | None ->
      if String.length cb.pending > limit then None
      else if refill cb then loop ()
      else None
  in
  loop ()

let read_exactly cb n ~limit =
  if n > limit then None
  else
    let rec loop () =
      if String.length cb.pending >= n then Some (take cb n)
      else if refill cb then loop ()
      else None
    in
    loop ()

type body_result = Body of string | Too_large | Bad of string

let read_chunked cb ~limit =
  let buf = Buffer.create 256 in
  let rec chunks () =
    match read_until cb "\r\n" ~limit:max_head_bytes with
    | None -> Bad "chunked: missing size line"
    | Some i -> (
      let line = take cb (i + 2) in
      let size_str =
        let l = String.sub line 0 i in
        match String.index_opt l ';' with
        | Some j -> String.sub l 0 j (* drop chunk extensions *)
        | None -> l
      in
      match int_of_string_opt ("0x" ^ String.trim size_str) with
      | None -> Bad (Printf.sprintf "chunked: bad size %S" size_str)
      | Some 0 -> (
        (* Trailer section: consume lines until the blank one. *)
        let rec trailers () =
          match read_until cb "\r\n" ~limit:max_head_bytes with
          | None -> Bad "chunked: missing final CRLF"
          | Some 0 ->
            ignore (take cb 2);
            Body (Buffer.contents buf)
          | Some j ->
            ignore (take cb (j + 2));
            trailers ()
        in
        trailers ())
      | Some size ->
        if size < 0 || Buffer.length buf + size > limit then Too_large
        else (
          match read_exactly cb (size + 2) ~limit:(size + 2) with
          | None -> Bad "chunked: truncated chunk"
          | Some data ->
            Buffer.add_string buf (String.sub data 0 size);
            chunks ()))
  in
  chunks ()

type read_result =
  | Request of request * string  (** parsed request, HTTP version *)
  | Closed  (** clean EOF before any byte of a new request *)
  | Malformed of response * string option
      (** error response, plus the client's request id when the head
          parsed far enough to recover one — echoed even on 400/413 *)

let rec read_request_conn ?(max_body = default_max_body) cb =
  if cb.pending = "" && not (refill cb) then Closed
  else
    match read_until cb "\r\n\r\n" ~limit:max_head_bytes with
    | Some i ->
      let head = take cb (i + 4) in
      request_of_head cb (String.sub head 0 i) ~max_body
    | None -> (
      (* Accept bare-\n framing from hand-rolled clients. *)
      match read_until cb "\n\n" ~limit:max_head_bytes with
      | None ->
        Malformed (response ~status:400 "oversized or truncated head\n", None)
      | Some i ->
        let head = take cb (i + 2) in
        request_of_head cb (String.sub head 0 i) ~max_body)

and request_of_head cb head ~max_body =
  match parse_head head with
  | Error e -> Malformed (response ~status:400 (e ^ "\n"), None)
  | Ok (req, version) -> (
    let rid = claimed_request_id req in
    let chunked =
      match List.assoc_opt "transfer-encoding" req.headers with
      | Some v ->
        let v = String.lowercase_ascii (String.trim v) in
        v <> "" && v <> "identity"
      | None -> false
    in
    if chunked then (
      match read_chunked cb ~limit:max_body with
      | Too_large ->
        Malformed (response ~status:413 "request body too large\n", rid)
      | Bad e -> Malformed (response ~status:400 (e ^ "\n"), rid)
      | Body b -> Request ({ req with body = b }, version))
    else
      match List.assoc_opt "content-length" req.headers with
      | None -> Request (req, version)
      | Some v -> (
        match int_of_string_opt (String.trim v) with
        | None -> Malformed (response ~status:400 "bad content-length\n", rid)
        | Some n when n < 0 ->
          Malformed (response ~status:400 "bad content-length\n", rid)
        | Some n when n > max_body ->
          Malformed (response ~status:413 "request body too large\n", rid)
        | Some n -> (
          match read_exactly cb n ~limit:max_body with
          | None -> Malformed (response ~status:400 "truncated body\n", rid)
          | Some b -> Request ({ req with body = b }, version))))

let render_response ~keep_alive r =
  let extra =
    List.fold_left
      (fun acc (k, v) -> acc ^ Printf.sprintf "%s: %s\r\n" k v)
      "" r.headers
  in
  Printf.sprintf
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     %s\r\n%s\r\n%s"
    r.status (status_text r.status) r.content_type
    (String.length r.body)
    (if keep_alive then "keep-alive" else "close")
    extra r.body

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let pos = ref 0 in
  while !pos < n do
    match Unix.write fd b !pos (n - !pos) with
    | 0 -> pos := n
    | written -> pos := !pos + written
    | exception _ -> pos := n
  done

(* ---------------------------------------------------------------- *)
(* Server: acceptor domain + worker team over a bounded fd queue     *)
(* ---------------------------------------------------------------- *)

type state = {
  sock : Unix.file_descr;
  port : int;
  stopping : bool Atomic.t;
  mu : Mutex.t;
  cond : Condition.t;
  queue : Unix.file_descr Queue.t;
  conns : (int, Unix.file_descr) Hashtbl.t;  (* live connections, by id *)
  mutable next_conn : int;
}

type server = {
  st : state;
  acceptor : unit Domain.t;
  workers : unit Domain.t list;
}

let register_conn st fd =
  Mutex.lock st.mu;
  let id = st.next_conn in
  st.next_conn <- id + 1;
  Hashtbl.replace st.conns id fd;
  Mutex.unlock st.mu;
  id

let unregister_conn st id =
  Mutex.lock st.mu;
  Hashtbl.remove st.conns id;
  Mutex.unlock st.mu

let serve_connection st ~handler ~max_body fd =
  let cb = { fd; pending = "" } in
  let continue = ref true in
  while !continue do
    match read_request_conn ~max_body cb with
    | Closed -> continue := false
    | Malformed (resp, rid) ->
      let rid = match rid with Some r -> r | None -> gen_request_id () in
      write_all fd (render_response ~keep_alive:false (with_request_id rid resp));
      continue := false
    | Request (req, version) ->
      let rid, req = ensure_request_id req in
      let resp =
        try handler req
        with e ->
          response ~status:500
            (Printf.sprintf "handler error: %s\n" (Printexc.to_string e))
      in
      let resp = with_request_id rid resp in
      let wants_close =
        match List.assoc_opt "connection" req.headers with
        | Some v -> String.lowercase_ascii v = "close"
        | None -> version = "HTTP/1.0"
      in
      let keep_alive = (not wants_close) && not (Atomic.get st.stopping) in
      write_all fd (render_response ~keep_alive resp);
      if not keep_alive then continue := false
  done

let worker_loop st ~handler ~max_body =
  let rec next () =
    Mutex.lock st.mu;
    (* Missed-wakeup audit (ctg_race): the wait is predicate-first and
       re-checked on every wakeup while holding [st.mu], and both
       producers of the predicate (accept_loop pushing to the queue,
       stop broadcasting after setting [stopping]) signal under the
       same mutex — a wakeup can be spurious but never lost. *)
    let rec wait () =
      if not (Queue.is_empty st.queue) then Some (Queue.pop st.queue)
      else if Atomic.get st.stopping then None
      else begin
        Condition.wait st.cond st.mu;
        wait ()
      end
    in
    let fd = wait () in
    Mutex.unlock st.mu;
    match fd with
    | None -> ()
    | Some fd ->
      let id = register_conn st fd in
      (try serve_connection st ~handler ~max_body fd with _ -> ());
      unregister_conn st id;
      (try Unix.close fd with _ -> ());
      next ()
  in
  next ()

let accept_loop st =
  while not (Atomic.get st.stopping) do
    match Unix.accept st.sock with
    | client, _ ->
      Mutex.lock st.mu;
      if Atomic.get st.stopping then begin
        Mutex.unlock st.mu;
        try Unix.close client with _ -> ()
      end
      else begin
        Queue.push client st.queue;
        Condition.signal st.cond;
        Mutex.unlock st.mu
      end
    | exception _ ->
      (* [stop] closed the listening socket under us; the flag check
         terminates the loop.  Transient accept errors just retry. *)
      if not (Atomic.get st.stopping) then Unix.sleepf 0.01
  done

let start_handler ?(host = "127.0.0.1") ?(backlog = 64) ?(workers = 4)
    ?(max_body = default_max_body) ~port handler =
  if workers < 1 then invalid_arg "Http.start_handler: workers must be >= 1";
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close sock with _ -> ());
     raise e);
  Unix.listen sock backlog;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let st =
    {
      sock;
      port;
      stopping = Atomic.make false;
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      conns = Hashtbl.create 16;
      next_conn = 0;
    }
  in
  {
    st;
    acceptor = Domain.spawn (fun () -> accept_loop st);
    workers =
      List.init workers (fun _ ->
          Domain.spawn (fun () -> worker_loop st ~handler ~max_body));
  }

let start ?host ?backlog ?workers ~port ~routes () =
  start_handler ?host ?backlog ?workers ~port (handler_of_routes routes)

let port s = s.st.port

let stop s =
  let st = s.st in
  if not (Atomic.exchange st.stopping true) then begin
    (* Closing the socket aborts a blocked [accept]; a racing accept on
       some platforms instead returns the next connection, so poke the
       port once to guarantee a wakeup. *)
    (try Unix.close st.sock with _ -> ());
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", st.port))
        with _ -> ());
       Unix.close fd
     with _ -> ());
    Domain.join s.acceptor;
    (* Drain: wake idle workers and drop never-served queued connections.
       A worker mid-request finishes and writes its response (keep-alive is
       disabled once [stopping] is set, so the connection then closes); a
       worker parked on an idle keep-alive read sees EOF via the receive
       shutdown. *)
    Mutex.lock st.mu;
    Condition.broadcast st.cond;
    let leftover = Queue.fold (fun acc fd -> fd :: acc) [] st.queue in
    Queue.clear st.queue;
    let live = Hashtbl.fold (fun _ fd acc -> fd :: acc) st.conns [] in
    Mutex.unlock st.mu;
    List.iter (fun fd -> try Unix.close fd with _ -> ()) leftover;
    List.iter
      (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
      live;
    List.iter Domain.join s.workers
  end

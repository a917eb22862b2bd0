(** Minimal stdlib-[Unix] HTTP/1.1 server shared by the metrics endpoint
    ({!Ctg_assure.Monitor.routes}) and the [ctg_serve] signing daemon.

    Just enough protocol for both jobs: GET and POST, keep-alive
    ([Connection: close] honored, HTTP/1.0 defaults to close),
    [Content-Length] and chunked request bodies (bounded), responses always
    framed by [Content-Length].  An acceptor domain feeds accepted
    connections to a small team of worker domains, so [workers] requests
    can be in flight concurrently — which is what lets the signing daemon
    coalesce them into batches.  Handlers therefore must be thread-safe.
    {!stop} drains gracefully: the listener closes first, in-flight
    requests complete and are answered, idle keep-alive connections are
    shut down, then every domain is joined. *)

type request = {
  meth : string;  (** Uppercased: [GET], [POST], ... *)
  path : string;  (** Target path with the query string stripped. *)
  query : (string * string) list;  (** Decoded query parameters, in order. *)
  headers : (string * string) list;  (** Names lowercased, values trimmed. *)
  body : string;
}

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;  (** Extra response headers, as-is. *)
  body : string;
}

val response :
  ?status:int -> ?content_type:string -> ?headers:(string * string) list ->
  string -> response
(** Defaults: status 200, [text/plain; charset=utf-8], no extra headers. *)

type handler = request -> response
(** Runs on a worker domain; exceptions become a 500. *)

type route = string * (unit -> response)
(** Exact path (query string stripped before matching) and its handler:
    the metrics endpoint's GET-only route table ({!handler_of_routes}). *)

val query_param : request -> string -> string option
val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val request_id : request -> string
(** The request's trace id.  Inside a handler run by {!start_handler}
    this is never empty: the server adopts a well-formed client
    [X-Request-Id] (1–64 chars of [\[A-Za-z0-9._-\]]) or generates one
    before dispatch, and echoes it on {e every} response the connection
    writes — 200s, handler errors, and 400/413 parse failures alike.
    Empty only for requests built by hand (tests). *)

val gen_request_id : unit -> string
(** A fresh process-unique id (what the server assigns when the client
    sent none) — also usable client-side to pre-assign an id. *)

val valid_request_id : string -> bool

val handler_of_routes : route list -> handler
(** GET-only routing over a route table: non-GET methods yield 405,
    unknown paths 404 and handler exceptions 500. *)

type server

val start_handler :
  ?host:string ->
  ?workers:int ->
  port:int ->
  handler ->
  server
(** Bind ([host] defaults to 127.0.0.1), listen, and serve [handler] on
    [workers] (default 4) worker domains, with request bodies up to 1 MiB
    (larger gets 413).  After a 400 or 413 the connection closes once the
    client stops sending, or after at most 2 MiB or 1 s more of input, so
    a client still writing the refused body reads the answer rather than
    a reset.  Pass [port:0] to let the kernel pick a free port
    (tests); read it back with {!port}.
    Raises [Unix.Unix_error] if the bind fails. *)

val port : server -> int

val stop : server -> unit
(** Graceful drain: close the listener, let in-flight requests finish and
    be answered, shut down idle keep-alive connections, join every worker
    and the acceptor.  Idempotent. *)

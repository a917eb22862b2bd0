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

val status_text : int -> string
(** Reason phrase for the status codes this stack emits. *)

type handler = request -> response
(** Runs on a worker domain; exceptions become a 500. *)

type route = string * (unit -> response)
(** Exact path (query string stripped before matching) and its handler —
    the legacy GET-only route table of the metrics endpoint. *)

val handler_of_routes : route list -> handler
(** GET-only routing: non-GET methods yield 405, unknown paths 404,
    handler exceptions 500. *)

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

val percent_decode : string -> string
val parse_query : string -> (string * string) list

val handle : routes:route list -> string -> response
(** Pure routing step: look up the path, run the handler, wrap handler
    exceptions as 500.  Unknown paths yield 404. *)

val handle_request : routes:route list -> string -> response
(** [handler_of_routes] applied to a raw request text; non-GET methods
    yield 405 and malformed request lines 400.  Exposed for in-process
    tests. *)

type server

val start :
  ?host:string ->
  ?backlog:int ->
  ?workers:int ->
  port:int ->
  routes:route list ->
  unit ->
  server
(** Bind ([host] defaults to 127.0.0.1), listen, and serve the GET route
    table on [workers] (default 4) worker domains.  Pass [port:0] to let
    the kernel pick a free port (tests); read it back with {!port}.
    Raises [Unix.Unix_error] if the bind fails. *)

val start_handler :
  ?host:string ->
  ?backlog:int ->
  ?workers:int ->
  ?max_body:int ->
  port:int ->
  handler ->
  server
(** Full-request server: method-aware handler, request bodies up to
    [max_body] bytes (default 1 MiB; larger gets 413). *)

val port : server -> int

val stop : server -> unit
(** Graceful drain: close the listener, let in-flight requests finish and
    be answered, shut down idle keep-alive connections, join every worker
    and the acceptor.  Idempotent. *)

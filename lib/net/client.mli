(** Minimal HTTP/1.1 client over one keep-alive connection (blocking,
    stdlib-[Unix]) — for [ctg_serve client], the serve bench and tests.
    Not a general client: responses must be [Content-Length]-framed or
    close-delimited, which is all {!Http} emits. *)

type response = {
  status : int;
  headers : (string * string) list;  (** Names lowercased. *)
  body : string;
}

type t

val connect : ?host:string -> ?timeout:float -> port:int -> unit -> t
(** TCP connect (default host 127.0.0.1).  [timeout] (seconds) is set as
    the socket's send and receive timeout, so every later [request] on
    the connection fails with [Unix.Unix_error (EAGAIN, _, _)] rather
    than blocking forever; a non-positive [timeout] fails immediately
    with [ETIMEDOUT].  Raises [Unix.Unix_error] on failure. *)

val close : t -> unit

val request :
  t ->
  ?headers:(string * string) list ->
  ?body:string ->
  meth:string ->
  path:string ->
  unit ->
  response
(** One request/response on the connection; reusable while the server
    keeps the connection alive.  [Content-Length] is added automatically
    for non-empty bodies and every non-GET request.  Raises [Failure] on
    protocol errors and [Unix.Unix_error] on transport errors. *)

val one_shot :
  ?host:string ->
  port:int ->
  ?headers:(string * string) list ->
  ?body:string ->
  meth:string ->
  path:string ->
  unit ->
  response
(** Connect, send one request, read the response, close. *)

val get : ?host:string -> port:int -> string -> response

val connect_retry : ?host:string -> port:int -> unit -> t
(** {!connect}, retried while a daemon boots: up to 3 attempts, 50 ms
    doubling backoff, and a 5 s deadline across all attempts that is also
    the connection's socket timeout.  Only transport failures (refused,
    reset or timed-out connects) are retried; the last one is raised.
    Requests are never retried — a received HTTP response of any status
    is the answer, and a lost response to a signing POST does not mean
    the daemon did not sign. *)

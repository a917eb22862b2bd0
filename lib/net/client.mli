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
val post : ?host:string -> port:int -> ?body:string -> string -> response

(** {1 Retries}

    Bounded exponential backoff with jitter around {!connect}: only
    transport failures are retried.  Requests are never retried — a
    received HTTP response of any status is the answer, and a lost
    response to a signing POST does not mean the daemon did not sign. *)

type retry_policy = {
  max_attempts : int;  (** Total attempts including the first; >= 1. *)
  base_delay : float;  (** First backoff step, seconds. *)
  max_delay : float;  (** Backoff cap, seconds. *)
  deadline : float option;
      (** Wall-clock budget across all attempts, also applied as
          per-attempt socket timeouts. *)
  jitter : attempt:int -> cap:float -> float;
      (** Sleep for this attempt given the backoff cap.  The default is
          equal jitter: [cap/2 + uniform(0, cap/2)].  Seam for tests. *)
  sleep : float -> unit;  (** [Unix.sleepf]; seam for tests. *)
}

val default_policy : retry_policy
(** 3 attempts, 50 ms doubling to a 1 s cap, 5 s deadline. *)

val transient : exn -> bool
(** Would the policy retry this exception? *)

val backoff_cap : retry_policy -> int -> float
(** Backoff cap for the given 1-based attempt (before jitter). *)

val connect_retry : ?policy:retry_policy -> ?host:string -> port:int -> unit -> t
(** [connect] under the policy — retries refused/reset connects while a
    daemon boots.  The deadline becomes the connection's socket timeout. *)

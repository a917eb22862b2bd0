(** Drop-in wrappers for [Atomic]/[Mutex]/[Condition]/[Domain] that the
    engine/net/serve/obs stack uses instead of the stdlib primitives.

    In production mode (default) each wrapper is the raw primitive behind
    one branch on a never-written flag — no measurable overhead (verified
    by [bench sync] and the existing paired-pass BENCH gates).  In checked
    mode, every operation performs an effect first, letting the ctg_race
    model checker schedule fibers at shared-memory granularity and model
    blocking primitives without blocking. *)

module Internal : sig
  val active : bool ref
  (** True only while the ctg_race checker is driving a harness. *)

  val set_active : bool -> unit
  val is_active : unit -> bool

  type kind = Read | Write | Rmw | Relax

  type _ Effect.t +=
    | Op : kind * Obj.t -> unit Effect.t
    | Lock_op : Obj.t -> unit Effect.t
    | Try_lock_op : Obj.t -> bool Effect.t
    | Unlock_op : Obj.t -> unit Effect.t
    | Wait_op : Obj.t * Obj.t -> unit Effect.t
    | Signal_op : Obj.t -> unit Effect.t
    | Broadcast_op : Obj.t -> unit Effect.t
    | Spawn_op : (unit -> unit) -> int Effect.t
    | Join_op : int -> unit Effect.t
end

module Atomic : sig
  type 'a t = 'a Stdlib.Atomic.t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit
end

module Mutex : sig
  type t = Stdlib.Mutex.t

  val create : unit -> t
  val lock : t -> unit
  val try_lock : t -> bool
  val unlock : t -> unit
  val protect : t -> (unit -> 'a) -> 'a
end

module Condition : sig
  type t = Stdlib.Condition.t

  val create : unit -> t
  val wait : t -> Mutex.t -> unit
  val signal : t -> unit
  val broadcast : t -> unit
end

module Domain : sig
  type 'a t = Real of 'a Stdlib.Domain.t | Model of int * 'a option ref

  val spawn : (unit -> 'a) -> 'a t
  val join : 'a t -> 'a

  val self : unit -> Stdlib.Domain.id
  val self_index : unit -> int
  val is_main_domain : unit -> bool
  val recommended_domain_count : unit -> int
  val cpu_relax : unit -> unit

  module DLS = Stdlib.Domain.DLS
end

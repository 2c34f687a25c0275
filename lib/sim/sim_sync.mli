(** Synchronisation primitives for simulated processes.

    All blocking operations must be called from inside a process body
    (see {!Sim_engine}). *)

(** Counting semaphore with FIFO wake-up. *)
module Semaphore : sig
  type t

  val create : int -> t
  val acquire : t -> unit
  val try_acquire : t -> bool
  val release : t -> unit

  val use : t -> (unit -> 'a) -> 'a
  (** Acquire, run the thunk, release. An exception from the thunk
      releases and is re-raised with its backtrace. *)

  val release_reraise : t -> exn -> 'a
  (** [release_reraise t e], called first thing in an exception handler:
      {!release}, then re-raise [e] with its backtrace — the error path
      of {!use}, for callers bracketing with {!acquire} or
      {!try_acquire} that must not allocate a thunk. *)
end

(** A pool of identical servers (CPUs, disk arms) with utilisation
    accounting. [use] brackets a critical section; [acquire]/[release]
    are the same bracket for callers that must not allocate a thunk. *)
module Resource : sig
  type t

  val create : Sim_engine.t -> capacity:int -> t
  val in_use : t -> int
  val use : t -> (unit -> 'a) -> 'a
  (** Acquire a server (waiting FIFO if all busy), run the thunk, release.
      An exception from the thunk releases the server and is re-raised
      with its backtrace. *)

  val hold : t -> float -> unit
  (** [hold t us] is [use t (fun () -> Sim_engine.delay us)] without the
      closure. *)

  val acquire : t -> unit
  (** Take a server, waiting FIFO if all are busy. Pair with
      {!release}, on every exit path. *)

  val release : t -> unit
  (** Return a server taken with {!acquire}, waking the next waiter. *)

  val release_reraise : t -> exn -> 'a
  (** [release_reraise t e], called first thing in an exception handler:
      {!release}, then re-raise [e] with its backtrace — the error path
      of {!use}, for callers bracketing with {!acquire}. *)

  val utilisation : t -> float
  (** Time-weighted fraction of servers busy since creation, in [0,1]. *)
end

(** Unbounded FIFO channel of values between processes. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t
  val send : 'a t -> 'a -> unit
  (** Never blocks. *)

  val recv : 'a t -> 'a
  (** Blocks until a value is available. *)

  val length : 'a t -> int
end

(** One-shot broadcast gate: processes wait until it is opened, after which
    all waits return immediately. *)
module Gate : sig
  type t

  val create : unit -> t
  val wait : t -> unit
  val open_ : t -> unit
  val is_open : t -> bool
end

(** Condition variable: [await c] blocks until some later [signal_all c].
    Unlike {!Gate}, it can be signalled repeatedly. *)
module Condition : sig
  type t

  val create : unit -> t
  val await : t -> unit
  val signal_all : t -> unit
end

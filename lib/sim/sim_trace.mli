(** Structured event tracing.

    Used by the Figure 2 reproduction to record the exact fault-handling
    protocol steps, and by tests to assert on kernel/manager interaction
    sequences. Disabled traces cost one branch per emit. *)

type t

type event = { time : float; tag : string; detail : string }

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** [capacity] bounds retained events (oldest dropped first);
    default 65536. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val emit : t -> time:float -> tag:string -> string -> unit

val events : t -> event list
(** Oldest first. *)

val tags : t -> string list
(** Just the tag sequence, oldest first — convenient for protocol
    assertions. *)

val clear : t -> unit
val dropped : t -> int

val dump : t -> string

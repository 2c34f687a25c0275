(** Structured event tracing.

    Used by the Figure 2 reproduction to record the exact fault-handling
    protocol steps, and by tests to assert on kernel/manager interaction
    sequences. Disabled traces cost one branch per emit. A trace keeps
    every event until {!clear}: its readers clear it, take one fault, and
    read it back. *)

type t

val create : ?enabled:bool -> unit -> t
val enabled : t -> bool
val emit : t -> time:float -> tag:string -> string -> unit

val tags : t -> string list
(** Just the tag sequence, oldest first — convenient for protocol
    assertions. *)

val clear : t -> unit

val dump : t -> string
(** One line per event, oldest first: time, tag and detail. *)

(** Discrete-event simulation engine with lightweight processes.

    Processes are ordinary OCaml functions executed under an effect handler;
    they advance simulated time with {!delay}, read the clock with {!time},
    and block on conditions with {!suspend}. Simulated time is a [float] of
    {e microseconds} throughout this repository.

    Events scheduled for the same instant fire in scheduling order, so a
    simulation is a deterministic function of its inputs and RNG seeds.

    A simulation runs entirely on one domain, but the "current engine"
    needed by the zero-argument process API is domain-local, so independent
    engines can run concurrently on separate domains (the [--jobs]
    experiment driver) without interfering. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in microseconds. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Start a new process at the current time. The body may use {!delay},
    {!time}, {!suspend} and {!fork}. *)

val run : ?until:float -> t -> unit
(** Execute events in time order until the event queue is empty or the
    clock would pass [until]. May be called repeatedly. *)

val live_processes : t -> int
(** Number of spawned processes that have not yet returned. Non-zero after
    {!run} drains the queue indicates blocked (deadlocked) processes. *)

val events_executed : t -> int

(** {2 Operations usable only inside a process body} *)

val delay : float -> unit
(** Advance this process's clock by the given number of microseconds. *)

val time : unit -> float
(** Current simulated time. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the calling process. [register] receives a
    [resume] function; stash it wherever the wake-up condition lives. When
    another process calls [resume v], this process continues at that
    process's current time with [v] as the result. [resume] must be called
    at most once. *)

val park : ((unit -> unit) -> unit) -> unit
(** [suspend] specialised to a unit result, for blocking primitives on
    per-event paths: same semantics, same event order and count, but it
    performs the engine's prebuilt effect and handler and resumes
    without boxing a result, so a park-and-resume allocates 16 words
    where a [suspend] allocates 28 (dev profile, [test_alloc.ml]). *)

val fork : ?name:string -> (unit -> unit) -> unit
(** Spawn a sibling process from inside a process. *)

exception Not_in_process
(** Raised when {!delay}, {!time}, {!suspend} or {!fork} is used outside a
    process body. *)

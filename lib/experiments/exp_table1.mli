(** Table 1 — System Primitive Times (µs), V++ vs ULTRIX 4.1 on a
    DECstation 5000/200.

    Every number is {e measured} by driving the corresponding code path in
    the simulators and reading the simulated clock; nothing returns a
    constant. The paper's §3.1 text also measures the Ultrix user-level
    reprotection fault (152 µs) to argue that a full V++ fault (107 µs) is
    cheaper than merely bouncing a protection fault through a Unix signal
    handler — included as an extra row. *)

type row = {
  label : string;
  vpp_us : float option;  (** Measured; [None] where the paper has none. *)
  ultrix_us : float option;
  paper_vpp : float option;
  paper_ultrix : float option;
}

type result = { rows : row list; checks : Exp_report.check list }

val timed : Hw_machine.t -> (unit -> unit) -> float
(** [timed machine f] runs [f] as one simulation process on [machine]'s
    engine, runs the engine until it drains, and returns the simulated µs
    [f] took. *)

(** One pinned Table 1 path. *)
type path = {
  name : string;  (** The identity's name in {!Hw_cost} ([vpp_read_4kb], ...). *)
  pinned : Hw_cost.t -> float;  (** That identity. *)
  setup : unit -> Hw_machine.t * (unit -> unit);
      (** Builds a fresh machine, takes it to the state the path starts
          from (a warm manager pool, a resident page, a preloaded file),
          and returns it with the operation to time. *)
}

val paths : path list
(** The eight identities, in {!Hw_cost}'s order. {!run} times each once;
    {!Exp_profile} times the same list with the metrics sink on. *)

val run : unit -> result
val render : result -> string

(** Deterministic fault injection for simulated devices.

    A chaos plan compiles a fault {e specification} (per-site error
    probabilities, scheduled outage windows, permanent bad blocks, latency
    bursts) against an explicit {!Sim_rng} seed. Devices consult the plan
    once per operation with {!decide}; every verdict is drawn from a
    per-site RNG stream and recorded in an append-only {e schedule}, so a
    simulation driven by the same seed replays the identical fault
    sequence — determinism is load-bearing for every experiment in this
    repository.

    A disabled plan ({!none}) answers {!Verdict.Pass} without drawing from
    any stream or recording anything, so attaching one to a device is
    observationally free: the Table 1–4 reproductions are byte-identical
    with or without it. *)

(** Which device operation is asking. Sites draw from independent RNG
    streams (split from the plan seed), so adding writes to a workload
    does not perturb the verdicts its reads receive. *)
type site = Disk_read | Disk_write

type spec = {
  read_error_p : float;  (** Probability a read fails transiently. *)
  write_error_p : float;  (** Probability a write fails transiently. *)
  delay_p : float;  (** Probability of a latency burst on any op. *)
  delay_min_us : float;
  delay_max_us : float;  (** Burst magnitude, uniform in [min, max). *)
  outages : (float * float) list;
      (** Absolute simulated-time windows [start, stop) during which every
          operation fails transiently (the device is unreachable; retries
          after the window succeed). *)
  bad_blocks : int list;
      (** Permanently unreadable/unwritable block numbers. Operations that
          do not name a block never match. *)
}

val default_spec : spec
(** All probabilities zero, no outages, no bad blocks. Build a spec with
    [{ default_spec with read_error_p = 0.05 }]. *)

(** The outcome of one injection decision. *)
module Verdict : sig
  type t =
    | Pass  (** Proceed normally. *)
    | Delay of float  (** Proceed after an extra delay (µs). *)
    | Transient_failure  (** Fail this attempt; a retry may succeed. *)
    | Permanent_failure  (** Bad block: every attempt fails. *)

  val equal : t -> t -> bool
  val to_string : t -> string
end

type event = {
  ev_index : int;  (** 0-based position in the schedule. *)
  ev_time : float;  (** Simulated time of the decision. *)
  ev_site : site;
  ev_block : int option;
  ev_verdict : Verdict.t;
}

type t

val create : seed:int64 -> spec -> t
(** Compile a plan. Equal seeds and specs give equal verdict streams. *)

val none : unit -> t
(** The disabled plan: never injects, never draws, never records. *)

val enabled : t -> bool
val spec : t -> spec

val decide : t -> site -> now:float -> block:int option -> Verdict.t
(** One injection decision. Draws a fixed number of variates per call so
    the stream stays aligned across config changes; records the verdict
    in the schedule. *)

val decisions : t -> int
(** Number of decisions made so far. *)

val schedule : t -> event list
(** Every decision made so far, oldest first — compare two runs of the
    same seed for replay equality. *)

val schedule_fingerprint : t -> string
(** Compact rendering of the schedule ("r17:fail w3:+250us ..."), one
    token per non-[Pass] verdict, for cheap equality assertions. *)

val injected_failures : t -> int
(** Transient + permanent failures injected so far. *)

val injected_delays : t -> int

(** Page-coloring payoff record (`vpp_repro cache`, schema vpp-cache/1):
    the same deterministic hot-set trace under sequential, random and
    colored frame placement on a machine carrying a physically-indexed
    L2 ({!Hw_machine.create} [?cache]), plus a tier-scoped colored leg
    on a fast+slow machine.

    The headline embedded check — which validation re-runs on the
    decoded record, like every other {!checks} entry — is that colored placement beats random (and
    sequential) on cache miss rate, with frame conservation and
    cache-stat conservation ([accesses = hits + misses]) holding in
    every leg, and the seeded random leg replaying identically. No
    wall-clock anywhere: the record is bit-identical across reruns. *)

type leg = {
  l_mode : string;  (** "sequential" | "random" | "colored" | "colored (tiered)" *)
  l_obs : Epcm_kernel.observation;
  l_accesses : int;
  l_hits : int;
  l_misses : int;
  l_miss_rate : float;
  l_color_misses : int;  (** {!Mgr_coloring.color_misses}; 0 for uncolored legs. *)
  l_audit_good : int;  (** {!Mgr_coloring.audit}; (0, 0) for uncolored legs. *)
  l_audit_total : int;
}

type result = {
  mode : string;  (** "full" | "quick" *)
  rounds : int;  (** hot-set hammer passes *)
  n_colors : int;  (** page colors the cache geometry induces *)
  legs : leg list;
  replay_identical : bool;  (** seeded random leg reran bit-identically *)
  checks : Exp_report.check list;
}

val schema_version : string
(** ["vpp-cache/1"]. *)

val run : ?quick:bool -> ?jobs:int -> unit -> result
(** [quick] shrinks the hammer rounds; [jobs] fans the five independent
    leg simulations over domains (in-order join — the assembled record
    is identical to a sequential run). *)

val render : result -> string

val checks : result -> Exp_report.check list
(** A record missing any of the four placement legs gets one failing
    check naming them. *)

val codec : result Exp_codec.t
(** The record. The decoder also requires at least three legs, a miss
    rate in [0, 1] and [accesses > 0] in every leg; the [geometry]
    constants other than [n_colors] are written on output only. *)

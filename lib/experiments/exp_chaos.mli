(** Chaos scenarios: seeded fault storms on the disk paths.

    Not a paper table — a robustness experiment over the reproduction's
    own machinery. Each scenario attaches a {!Sim_chaos} plan to the
    simulated disk, drives one disk-touching manager through a workload
    that storms the injected faults (transient errors, latency bursts, an
    outage window, torn log writes), then detaches the plan and verifies
    full recovery. Every scenario ends with the frame-conservation audit,
    and the whole run is executed twice from the same seed to prove
    replay equality — the determinism claim the rest of the repository
    leans on, demonstrated under failure.

    Kept out of [vpp_repro all] so the paper-reproduction output stays
    byte-identical to a chaos-free build; run it with [vpp_repro chaos]. *)

type scenario = {
  s_name : string;
  s_decisions : int;  (** Injection decisions the plan made. *)
  s_injected_failures : int;
  s_injected_delays : int;
  s_app_failures : int;
      (** Failures that survived retry and degradation all the way to the
          application (touches that raised, commits not acknowledged,
          checkpoint images that lost durability). *)
  s_retries : int;  (** Retried device attempts: the backing store's, or the log's. *)
  s_frames_expected : int;
  s_frames_owned : int;  (** {!Epcm_kernel.frame_owner_total} at the end. *)
  s_recovered : bool;  (** Clean pass after the plan was detached. *)
  s_fingerprint : string;  (** {!Sim_chaos.schedule_fingerprint}. *)
  s_counters : (string * int) list;
      (** The nonzero retry, failure and degradation counts of the
          scenario's backing store and manager (or log), read from their
          typed statistics, by name. *)
}

type result = { scenarios : scenario list; replay_ok : bool; checks : Exp_report.check list }

val run : ?seed:int64 -> unit -> result
(** Runs every scenario twice (replay check). Deterministic per seed. *)

val render : result -> string

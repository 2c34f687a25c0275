(** The tiered-placement record (`vpp_repro tier`, schema [vpp-tier/1]).

    Two deterministic workloads — a Wl_scale-style hot/cold working set
    and a B-tree index-scan-then-point-lookup trace — each run as three
    legs on matched machines:

    - [flat]: one DRAM tier, naive demand pager (the no-tiering baseline);
    - [static]: fast + slow tiers, the {e same} naive pager — placement
      by fault order, so hot pages end up stuck on slow frames. The delta
      against [flat] is the pure tier surcharge;
    - [managed]: the same tiered machine under {!Mgr_tiered} — demand
      faults land fast, clock demotion moves cold pages down through the
      slow tier into the compressed store, protection-fault sampling
      promotes hot pages back up.

    The embedded checks ({!checks}, which validation re-runs) gate on:
    frame conservation in every leg ({!Epcm_kernel.audit}: incremental
    counters == full scan, flat and per tier), the flat
    and static legs running the identical trace, a measurable tier
    surcharge (static > flat), managed placement beating static on
    simulated time, and the manager promoting and demoting (into the
    compressed store too when the machine is short of pages plus the
    managed leg's pools). Everything is simulated and seeded — reruns are
    bit-identical. *)

type leg = {
  g_mode : string;
  g_obs : Epcm_kernel.observation;
  g_resident_by_tier : int list;  (** Workload segment, per machine tier. *)
  g_promotions : int;
  g_demotions_slow : int;
  g_demotions_compressed : int;
  g_refetches : int;
}

type run_row = {
  w_name : string;
  w_fast_frames : int;
  w_slow_frames : int;
  w_pages : int;
  w_flat : leg;
  w_static : leg;
  w_managed : leg;
}

type result = { mode : string; runs : run_row list; checks : Exp_report.check list }

val schema_version : string
(** ["vpp-tier/1"]. *)

val run : ?quick:bool -> ?jobs:int -> unit -> result
(** [quick] drops the B-tree workload (the compressed-store leg), for the
    [@tier-smoke] alias. [jobs] (default 1) fans the independent
    workload legs out over that many domains via {!Exp_par}; the
    in-order join keeps the record byte-identical to a sequential
    run. *)

val render : result -> string

val checks : result -> Exp_report.check list

val codec : result Exp_codec.t
(** The record. The decoder also requires at least one run and
    [sim_us > 0] in every leg. *)

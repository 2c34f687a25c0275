(** The multi-tenant memory-market workload (ROADMAP item 1): a
    production-scale stress of the SPCM's admission control and lazy
    market settlement.

    A deterministic open-loop arrival process (seeded {!Sim_rng}, one
    split per role so streams are independent) spawns thousands of
    short-lived {e interactive} tenants against a handful of long-running
    {e batch savers}:

    - Interactive tenants acquire a small working set through the blocking
      {!Spcm.acquire} path (admission-queue on shortage), touch it, hold
      it for a drawn dwell time, and return it. Each granted tenant
      records one acquire-to-resident latency sample into its class's
      {!Sim_metrics.Hist}, from which the per-class SLO report
      (p50/p99/p999 over tenants, violations against a target) is
      extracted; the machine's metrics sink stays off. A premium slice
      runs at higher admission priority; a poor slice has starvation
      income and is refused by the market.
    - Savers run the paper's batch cycle (fault the working set through a
      {!Mgr_generic} manager fed by {!Spcm.source_for}, compute, swap out,
      reconcile with {!Spcm.note_returned}) and are the reclaim targets
      when the admission queue backs up.
    - A sweeper periodically runs {!Spcm.sweep} (bankrupt enforcement +
      reclaim-for-head + pump) until every tenant has completed or been
      refused, then drains any stragglers with {!Spcm.refuse_pending} so
      the engine winds down to zero live processes.

    Memory is sized so bursts outrun the free pool: deferrals are part of
    the workload's expected behaviour, not an error. The whole run is
    deterministic from [c_seed]; the optional chaos spec attaches a seeded
    fault plan to the machine disk for storm tests. *)

type saver_backing = Memory | Disk

type config = {
  c_name : string;
  c_seed : int64;
  c_memory_bytes : int;
  c_page_size : int;
  c_tenants : int;  (** Interactive jobs spawned by the arrival process. *)
  c_mean_interarrival_us : float;
  c_pages_lo : int;
  c_pages_hi : int;  (** Working-set draw, inclusive bounds. *)
  c_hold_us_lo : float;
  c_hold_us_hi : float;
  c_premium_every : int;  (** Every Nth tenant runs at high priority. *)
  c_poor_every : int;  (** Every Nth tenant has starvation income. *)
  c_slo_us : float;  (** Per-tenant latency target for the violation count. *)
  c_savers : int;
  c_saver_pages : int;
  c_saver_slice_us : float;
  c_saver_idle_us : float;
  c_saver_backing : saver_backing;
  c_sweep_every_us : float;
  c_market : Spcm_market.config;
  c_chaos : Sim_chaos.spec option;
}

type class_slo = {
  sc_class : string;
  sc_tenants : int;
  sc_completed : int;
  sc_refused : int;
  sc_samples : int;  (** Latency samples (completed tenants) in the class. *)
  sc_p50_us : float;
  sc_p99_us : float;
  sc_p999_us : float;
  sc_max_us : float;
  sc_violations : int;  (** Tenants whose latency sample exceeds [c_slo_us]. *)
}

type result = {
  r_name : string;
  r_frames : int;
  r_tenants : int;
  r_savers : int;
  r_completed : int;
  r_refused : int;
  r_defer_events : int;
  r_granted_frames : int;  (** Frames granted to interactive tenants. *)
  r_saver_cycles : int;
  r_saver_starved : int;  (** Saver cycles abandoned for lack of frames. *)
  r_faults : int;
  r_events : int;
  r_sim_us : float;
  r_slo_us : float;
  r_slos : class_slo list;
  r_accounts : int;
  r_min_balance : float;
  r_billable_s : float;
  r_conservation_residual : float;  (** {!Spcm_market.conservation_error}. *)
  r_io_failures : int;  (** Backing I/O failures (chaos runs). *)
  r_conserved : bool;
      (** {!Epcm_kernel.audit} held, no queued waiters, all client
          holdings returned. *)
}

val small : config
(** 1,000 tenants on an 8 MB machine — CI-speed preset. *)

val production : config
(** 5,000 tenants on a 20 MB machine — the acceptance-scale preset. *)

val run : config -> result

(** The sharded transaction engine: the §3.3 substrate scaled out.

    One {e shard} is a self-contained simulated machine — its own
    {!Epcm_kernel}, {!Mgr_dbms} segment manager with a pinned accounts
    relation, {!Db_wal} on its own disk, {!Db_locks} hierarchy and
    deterministic {!Sim_rng} stream — driven by a closed loop of worker
    processes executing DebitCredit transactions. Because shards share
    nothing, a run of [n] shards is [n] independent deterministic
    simulations: the experiment layer fans them over OCaml 5 domains
    ({!Exp_par.map}) and the joined result is byte-identical to a
    sequential run.

    A configurable fraction of transactions is {e cross-shard}: the
    coordinating shard debits a local account and credits an account on
    a remote shard, atomically, via two-phase commit ({!Db_coord}).
    The remote side is modelled inside the coordinating shard's machine
    — its lock table, prepare/outcome WAL and page images are driven by
    the shard that coordinates the transaction, with {!Mgr_dsm} as the
    page transport (per-message interconnect latency, MSI copy
    installs) and {!Db_locks.acquire_timeout} turning remote lock
    conflicts into votes to abort. A single-shard run performs {e no}
    cross-shard work at all: no coordinator messages, no DSM transfers
    (the transport is not even instantiated) — the zero-delta
    discipline, pinned in [test_shard.ml].

    Frame conservation is audited per shard machine; every transaction
    either commits or aborts (accounted exactly). *)

type spec = {
  sp_shards : int;  (** Number of shards. *)
  sp_total_txns : int;  (** Total transactions, split evenly across shards. *)
  sp_workers : int;  (** Closed-loop worker processes per shard. *)
  sp_cpus : int;  (** Simulated processors per shard. *)
  sp_accounts_pages : int;  (** Pinned accounts relation, pages per shard. *)
  sp_remote_pages : int;  (** Remote-account window per peer shard. *)
  sp_hot_remote_pages : int;
      (** Contended prefix of the remote window (branch rows): half of
          all remote picks land here, which is what makes lock timeouts
          and 2PC aborts reachable. *)
  sp_cross_fraction : float;
      (** Fraction of transactions touching a second shard (forced to
          0 when [sp_shards = 1]). *)
  sp_lock_timeout_us : float;  (** Remote lock wait budget before voting abort. *)
  sp_net_latency_us : float;  (** Interconnect latency per 2PC/DSM message. *)
  sp_service_ms : float;  (** Processor time per transaction. *)
  sp_touch_pages : int;  (** Account pages a DebitCredit writes. *)
  sp_group_commit : bool;
      (** Every log of the shard uses group commit ([true], the default)
          or per-commit forcing ([false], the reference it is measured
          against); see {!Db_wal.create}. *)
  sp_seed : int64;
}

val default : spec
(** 8 workers on 6 CPUs per shard, 512 account pages, 10 % cross-shard,
    12 ms lock timeout, 1 ms interconnect latency, group commit. *)

type result = {
  r_shard : int;
  r_txns : int;
  r_commits : int;
  r_aborts : int;
  r_local : int;
  r_cross : int;
  r_p50_ms : float;
  r_p99_ms : float;
  r_tps : float;  (** Committed+aborted transactions per simulated second. *)
  r_sim_us : float;
  r_events : int;
  r_msgs : int;  (** 2PC protocol messages (4 per participant). *)
  r_prepares : int;
  r_wal_flushes : int;  (** Forces of the shard's own log. *)
  r_wal_parks : int;
      (** Times a committer on the shard's own log parked behind an
          in-flight force ({!Db_wal.group_parks}). *)
  r_dsm_transfers : int;  (** Remote page copies shipped. *)
  r_lock_timeouts : int;  (** Remote waits that expired into abort votes. *)
  r_frames : int;
  r_conserved : bool;  (** {!Epcm_kernel.audit} after the run. *)
}

type world
(** One shard's machine, exposed so tests can build several worlds in
    one process before running any of them (the coexistence pin). *)

val build : spec -> shard:int -> world
val execute : world -> result
(** Run the built shard to completion and collect its result. *)

val run_shard : spec -> shard:int -> result
(** [build] + [execute]. Deterministic per ([spec], [shard]). *)

val machine : world -> Hw_machine.t
(** The shard's machine, e.g. to switch its metrics sink on
    ({!Hw_machine.set_profiling}) between [build] and [execute]: its
    disk then records every log force's latency under ["wal.flush"],
    parking included. Observing changes no simulated result. *)

val shard_txns : spec -> shard:int -> int
(** This shard's slice of [sp_total_txns] (even split, remainder to the
    low shard ids). *)

(** The §3.3 database transaction-processing simulation.

    Six 30-MIPS processors, a 120 MB database resident under an
    application-specific segment manager, Poisson arrivals at 40 TPS, 95 %
    DebitCredit transactions and 5 % joins, hierarchical locking. Like the
    paper's own program, this is "a mixture of implementation and
    simulation": locks and memory management are real (the epcm kernel and
    {!Mgr_dbms} do actual migrates and faults); transaction execution is
    simulated as processor time.

    The four configurations differ only in index policy:
    - [No_index]: joins scan the relations;
    - [Index_in_memory]: every index resident;
    - [Index_with_paging]: 1 MB over-commit — one index is always out and
      comes back from disk page by page, under the index latch, while
      every arriving transaction piles up behind it;
    - [Index_regeneration]: the DBMS, told of the 1 MB shortfall, discards
      one index and regenerates it in memory when next needed. *)

type result = {
  label : string;
  avg_ms : float;
  worst_ms : float;
  p95_ms : float;
  txns : int;
  avg_dc_ms : float;
  avg_join_ms : float;
  page_in_events : int;
  regenerations : int;
  cpu_utilisation : float;
  lock_waits : int;  (** Acquisitions that had to block. *)
  frames_conserved : bool;  (** {!Epcm_kernel.audit} at the end. *)
}

val run : Db_config.t -> result
val render : result list -> string
(** Table 4-style rendering with the paper's numbers alongside. *)

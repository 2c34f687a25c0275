(** Configuration for the §3.3 database transaction-processing
    simulation. *)

type indexing =
  | No_index  (** Joins scan relations. *)
  | Index_in_memory  (** Enough physical memory for every index. *)
  | Index_with_paging
      (** The program's virtual memory exceeds its allocation by 1 MB: one
          index is always out; when needed it is paged in from disk under
          the index latch (≈every 500 transactions). *)
  | Index_regeneration
      (** The DBMS is told its allocation shrank by 1 MB and discards one
          index, regenerating it in memory when needed. *)

type t = {
  label : string;
  indexing : indexing;
  seed : int64;
  duration_s : float;  (** Simulated run length. *)
  warmup_s : float;  (** Transactions before this are not counted. *)
  tps : float;  (** Poisson arrival rate — 40 in the paper. *)
  join_fraction : float;  (** 0.05 in the paper. *)
  n_cpus : int;  (** 6 of the SGI 4D/380's 8. *)
  (* service demands, milliseconds of one 30-MIPS processor *)
  dc_service_ms : float;
  join_index_ms : float;  (** Join using an in-memory index. *)
  join_scan_ms : float;  (** Join by relation scan (no index). *)
  regen_ms : float;  (** Rebuild one 1 MB index from its relation. *)
  (* data layout *)
  n_indices : int;
  index_pages : int;  (** 256 pages = 1 MB. *)
  accounts_pages : int;
  summary_pages : int;
  dc_touch_pages : int;  (** Data pages a DebitCredit touches. *)
  p_evicted_index_needed : float;
      (** Probability a transaction needs the currently-evicted (coldest)
          index — 1/500 reproduces the paper's "paged in every 500
          transactions". *)
}

val base : t
(** The paper's parameters with service demands calibrated for the SGI
    4D/380 (see EXPERIMENTS.md). [indexing] defaults to
    [Index_in_memory]. *)

val no_index : t
val index_in_memory : t
val index_with_paging : t
val index_regeneration : t
val all_paper_configs : t list
(** The four Table 4 rows, in paper order. *)

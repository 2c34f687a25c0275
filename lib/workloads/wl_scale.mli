(** Scalable synthetic workload for the perf record (`vpp_repro perf`).

    A deterministic paging + migration workload whose working set scales
    linearly with the simulated machine size, so kernel-operation
    throughput (events/sec, faults/sec, migrates/sec of {e real} time) is
    comparable across sizes and across PRs. Four phases:

    - cold demand-paging of half of memory (missing faults, pool refills),
    - two warm scans (translation fast path),
    - batch [MigratePages] ping-pong over a quarter of the heap,
    - a churn phase with more pages than its frame budget, forcing clock
      reclaim, eviction and writeback.

    No randomness, no wall-clock: rerunning a config reproduces identical
    counts and simulated time; only the host's elapsed time (measured by
    {!Exp_scale}) varies. *)

type config = {
  c_name : string;
  c_memory_bytes : int;
  c_page_size : int;
}

type result = {
  r_name : string;
  r_memory_bytes : int;
  r_obs : Epcm_kernel.observation;  (** The kernel after the run. *)
}

val size_8mb : config
(** The 1992 scale: 8 MB, 2K frames. *)

val size_512mb : config

val standard_sizes : config list
(** [8 MB; 512 MB; 4 GB] — the three sizes the perf record reports. *)

val run : config -> result

(** {2 Streaming leg (superpage comparison)} *)

type stream_result = {
  s_name : string;
  s_memory_bytes : int;
  s_superpages : bool;  (** Whether the stream segment was opted in. *)
  s_run : int;  (** Base pages per superpage on this machine. *)
  s_stream_pages : int;  (** Pages streamed (a multiple of [s_run]). *)
  s_sp_promotions : int;
  s_sp_demotions : int;
  s_obs : Epcm_kernel.observation;
}

val run_stream : ?superpages:bool -> config -> stream_result
(** Sequential stream over half of memory (rounded to whole superpage
    regions), a warm rescan, then a partial eviction + re-touch of the
    first region. With [superpages] (default [false]) the stream segment
    is opted into 2 MB mappings and fills arrive as whole aligned run
    grants — one fault and one [MigratePages] per [s_run] pages instead
    of one per page — and the eviction splits a promoted region. Both
    legs stream identical page counts, so the fault-count ratio is the
    superpage win the perf record reports. *)

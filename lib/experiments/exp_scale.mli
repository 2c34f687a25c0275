(** Throughput record (`vpp_repro perf`, [BENCH_perf.json]).

    Runs the {!Wl_scale} workload at increasing machine sizes and measures
    {e host} wall-clock throughput (simulation events, faults and migrated
    pages per second), then times the domain-parallel experiment driver
    ({!Exp_par}) against its sequential equivalent on a fixed task list and
    checks the joined outputs are byte-identical. Emits a versioned,
    schema-stable JSON record so perf regressions across PRs are a
    machine-readable diff, like the [vpp-profile/1] record next to it.

    The simulated side of every run is deterministic; only the [wall_s]
    and derived per-second fields vary between hosts; [vpp_repro diff]
    compares two records on everything else. *)

val schema_version : string
(** ["vpp-perf/2"]. Bump when the record layout changes. v2 added the
    [stream] leg: the same sequential stream at the largest machine size
    run twice, with 4 KB fills and with superpage (2 MB) run grants. *)

type scale_row = {
  s_result : Wl_scale.result;
  s_wall_s : float;  (** Host seconds for the whole run. *)
}

type stream_row = {
  t_result : Wl_scale.stream_result;
  t_wall_s : float;
}

type driver = {
  d_jobs : int;  (** Domains the parallel leg used. *)
  d_sequential_s : float;
  d_parallel_s : float;
  d_identical : bool;
      (** The parallel driver's joined output was byte-identical to the
          sequential one. *)
}

type result = {
  mode : string;  (** ["full"] or ["quick"]. *)
  scales : scale_row list;
  stream : stream_row list;
      (** The 4 KB and superpage legs of {!Wl_scale.run_stream} at the
          largest size in [scales] (4 GB full, 512 MB quick). *)
  driver : driver;
  checks : Exp_report.check list;
}

val run : ?quick:bool -> ?jobs:int -> unit -> result
(** [quick] drops the largest machine size (CI smoke); [jobs] (default
    [Exp_par.default_jobs ()]) fans the scale and stream legs themselves
    over that many domains — each leg times itself, and the in-order
    join keeps every deterministic field identical to a sequential run —
    and sets the parallel driver leg's domain count. *)

val render : result -> string

val checks : result -> Exp_report.check list
(** The shape checks [run] stores: per-size conservation and coverage,
    event counts growing with size, the parallel driver's byte-identity,
    and the stream legs' identical references with the superpage leg
    taking at least 100x fewer faults. A function of the decoded record
    alone, so validation re-runs it. *)

val codec : result Exp_codec.t
(** The record. The decoder also requires at least two scales, exactly
    two stream legs, non-negative [wall_s] and at least one driver job;
    the per-second and [speedup] fields are derived on output only. *)

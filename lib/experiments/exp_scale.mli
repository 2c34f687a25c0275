(** Perf record (`vpp_repro perf`, [BENCH_perf.json]): simulated work at
    scale.

    Runs the {!Wl_scale} workload at increasing machine sizes and the
    same sequential stream at the largest size with 4 KB fills and with
    superpage run grants. Emits a versioned, schema-stable JSON record of
    the simulated counts (faults, migrated pages, engine events,
    simulated time), so a change in how much work a run does is a
    machine-readable diff, like the [vpp-profile/1] record next to it.
    Every field is simulated: the record is a function of [quick] alone,
    whatever [jobs] is. How fast the host runs it is [benchmark/]'s
    measurement, not this record's. *)

val schema_version : string
(** ["vpp-perf/3"]. Bump when the record layout changes. v2 added the
    [stream] leg; v3 dropped the host-time fields ([wall_s], the
    per-second rates) and the timed parallel-driver leg. *)

type result = {
  mode : string;  (** ["full"] or ["quick"]. *)
  scales : Wl_scale.result list;
  stream : Wl_scale.stream_result list;
      (** The 4 KB and superpage legs of {!Wl_scale.run_stream} at the
          largest size in [scales] (4 GB full, 512 MB quick). *)
  checks : Exp_report.check list;
}

val run : ?quick:bool -> ?jobs:int -> unit -> result
(** [quick] drops the largest machine size (CI smoke); [jobs] (default
    [Exp_par.default_jobs ()]) fans the scale and stream legs over that
    many domains, and the in-order join keeps the result identical to a
    sequential run. *)

val render : result -> string

val checks : result -> Exp_report.check list
(** The shape checks [run] stores: per-size conservation and coverage,
    event counts growing with size, and the stream legs' identical
    references with the superpage leg taking at least 100x fewer faults.
    A function of the decoded record alone, so validation re-runs it. *)

val codec : result Exp_codec.t
(** The record. The decoder also requires at least two scales and
    exactly two stream legs. *)

(** The [vpp-market/2] record: the multi-tenant memory-market workload
    ({!Wl_market}) at one or two scales, with per-class SLO tables,
    market-conservation audits and machine-checked shape checks.

    Follows the [vpp-perf/3] pattern: [run] produces a result whose
    record carries a [schema] tag and a [checks] array, and validating a
    written record decodes it and re-runs {!checks}, so CI can gate on
    the file itself. Every field is deterministic from the workload
    seeds. *)

val schema_version : string
(** ["vpp-market/2"]. v2 dropped the host-time [wall_s] of each leg and
    the [jobs] field. *)

type result = {
  mode : string;  (** "quick" (small leg only) or "full". *)
  legs : Wl_market.result list;
  checks : Exp_report.check list;
}

val run : ?quick:bool -> ?jobs:int -> unit -> result
(** [quick] runs only the [small] leg; the full run adds [production]
    (~5,000 tenants). [jobs] (default [Exp_par.default_jobs ()]) fans the
    legs over domains ({!Exp_par.map}); the result is the same for every
    [jobs]. *)

val render : result -> string

val checks : result -> Exp_report.check list
(** Per leg: frame and process conservation, every tenant completed or
    refused, deferrals and refusals occurred, no drams minted, solvent
    classes stayed solvent, SLO quantiles ordered, billable time within
    simulated time. *)

val codec : result Exp_codec.t
(** The record. The decoder also requires at least one leg. *)

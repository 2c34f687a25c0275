(** The [vpp-market/1] record: the multi-tenant memory-market workload
    ({!Wl_market}) at one or two scales, with per-class SLO tables,
    market-conservation audits and machine-checked shape checks.

    Follows the [vpp-perf/2] pattern: [run] produces a result whose
    record carries a [schema] tag and a [checks] array, and validating a
    written record decodes it and re-runs {!checks}, so CI can gate on
    the file itself. Wall-clock seconds come from [Unix.gettimeofday] — the same
    deliberate exception to the no-wall-clock rule as [Exp_scale]; every
    other field is deterministic from the workload seeds. *)

val schema_version : string

type leg = {
  l_result : Wl_market.result;
  l_wall_s : float;
}

type result = {
  mode : string;  (** "quick" (small leg only) or "full". *)
  jobs : int;
  legs : leg list;
  checks : Exp_report.check list;
}

val run : ?quick:bool -> ?jobs:int -> unit -> result
(** [quick] runs only the [small] leg; the full run adds [production]
    (~5,000 tenants). [jobs] fans the legs over domains ({!Exp_par.map});
    results are deterministic either way. *)

val render : result -> string

val checks : result -> Exp_report.check list
(** Per leg: frame and process conservation, every tenant completed or
    refused, deferrals and refusals occurred, no drams minted, solvent
    classes stayed solvent, SLO quantiles ordered, billable time within
    simulated time. *)

val codec : result Exp_codec.t
(** The record. The decoder also requires at least one leg and
    non-negative [wall_s]. *)

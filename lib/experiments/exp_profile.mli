(** Observability profile: re-runs each Table 1 path with the metrics sink
    enabled and decomposes the pinned row totals into their span-attributed
    charges, then drives a deterministic demand-paging + WAL workload to
    populate latency histograms per operation kind. Emits a versioned,
    schema-stable JSON record ([vpp_repro profile --json]). *)

val schema_version : string
(** ["vpp-profile/1"]. Bump when the record layout changes. *)

type row = {
  p_label : string;  (** The identity's name in [Hw_cost] ([vpp_read_4kb], ...). *)
  p_pinned_us : float;  (** The documented Table 1 value. *)
  p_measured_us : float;  (** Simulated wall time of the operation. *)
  p_spans : (string * int * float) list;
      (** Span-attributed decomposition: (path, charge count, total us),
          sorted by path. Sums to [p_pinned_us]. *)
}

(** One operation kind's latency histogram, summarised at run time
    (the fields of {!Sim_metrics.hist_to_json}). *)
type latency = {
  kind : string;
  count : int;
  total_us : float;
  min_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  max_us : float;
  buckets : (float * int) list;  (** (upper bound us, count), ascending. *)
}

type result = {
  rows : row list;  (** The eight Table 1 identities, in table order. *)
  latency : latency list;  (** By kind, sorted. *)
  checks : Exp_report.check list;
}

val run : unit -> result

val render : result -> string
(** Human-readable profile: per-row decompositions plus a quantile table. *)

val checks : result -> Exp_report.check list
(** Each row's spans sum to its pinned total and its measured time
    equals it; the paging workload populated the expected kinds; every
    kind's quantiles are ordered. *)

val codec : result Exp_codec.t
(** The record. The decoder also requires exactly eight rows;
    [span_sum_us] is derived on output only. *)

(** One benchmark run: warm up, time iterations of a workload for a fixed
    number of host seconds, optionally trace one more, check every
    result, and turn it all into named metrics. *)

type metric = { name : string; unit_ : string; value : float }

val end_to_end : (string * string) list
(** [(name, unit)] of the metrics an untraced run reports, in order:
    host seconds per iteration and to set up (medians), peak heap, and
    minor words allocated per iteration. Each applies to every
    workload. *)

val per_layer : (string * string) list
(** [(name, unit)] of the metrics a traced run reports, in order. Every
    workload reports every one; a layer the workload does not run, or
    whose counters its library keeps private, reads 0. *)

type report = {
  workload : string;
  seed : int;
  iterations : int;
  correct : bool;
  attempted : int;  (** Operations issued over the timed iterations. *)
  failed : int;  (** Operations found wrong, plus failed checks. *)
  metrics : metric list;  (** {!end_to_end} untraced, {!per_layer} traced. *)
  details : metric list;
      (** Further numbers printed for people (quartiles, iteration count,
          per-span host times) but kept out of {!metrics}. *)
  counters : (string * float) list;  (** The simulated counters of the first iteration. *)
  failures : string list;  (** What each failed check was. *)
}

val run :
  Bench_workloads.t -> seed:int -> seconds:float -> quick:bool -> trace_file:string option -> report
(** With [seconds > 0], one untimed warm-up iteration runs first; then
    iterations run until [seconds] of host time have passed (at least
    one). With [trace_file], one more iteration runs with spans on and
    its Chrome trace is written there. *)

val render : report -> string
(** Every metric and detail by name with its unit, and every failed
    check. *)

val json_line : report -> string
(** [{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}]
    on one line, every value with all its digits. *)

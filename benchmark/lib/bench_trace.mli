(** Host-time spans recorded by the benchmark around its own calls into
    the simulator's layers.

    A span records its name, host start and end (monotonic nanoseconds),
    its parent span and a key naming the operation it serves (a touch's
    page, a shard, a table). Spans nest by the host call stack, so they
    are only meaningful when the wrapped calls run on one simulated
    process at a time, which holds for every place the benchmark opens
    one.

    Every span also counts the minor-heap words allocated while it was
    open, with the recorder's own bookkeeping subtracted, so the word
    counts are those of the wrapped code alone and repeat exactly from
    run to run.

    Spans are kept in memory: the first {!raw_limit} verbatim, and all of
    them folded into per-name total/self {!Sim_metrics.Hist}s. Nothing is
    written until {!to_chrome}. *)

val now_ns : unit -> int
(** Monotonic host clock, nanoseconds. Allocates nothing. *)

val minor_words : unit -> int
(** Minor-heap words allocated so far by this domain. Allocates nothing. *)

type t

type kind
(** A span name resolved once, so opening a span does no string
    hashing. *)

val raw_limit : int
(** Spans kept verbatim for the Chrome export (200,000). *)

val create : unit -> t

val kind : t -> string -> kind
(** The name's layer is its prefix up to the first ['.'] ([epcm.touch] is
    in layer [epcm]). *)

val enter : t -> kind -> key:int -> unit
(** Open a span inside the innermost open one. *)

val leave : t -> unit
(** Close the innermost open span. [enter]/[leave] let a hot wrapper
    avoid allocating a closure inside its parent's span, which would
    count against the parent's words. *)

val span : t -> kind -> key:int -> (unit -> 'a) -> 'a
(** Run the thunk between [enter] and [leave]. Exceptions close the span
    and propagate. *)

val relabel : t -> kind -> unit
(** Rename the innermost open span, for a span whose kind is only known
    once its work is done (a touch that turned out to fault). *)

val spans : t -> int
(** Spans closed so far. *)

type summary = {
  name : string;
  count : int;
  total_ns : Sim_metrics.Hist.t;
  self_ns : Sim_metrics.Hist.t;
      (** Duration minus the part its child spans cover; never negative. *)
  words : int;  (** Minor words allocated under spans of this name, tracer excluded. *)
}

val summaries : t -> summary list
(** One per name that closed at least one span, sorted by name. *)

val layer_self_ns : t -> (string * float) list
(** Summed self time per layer, sorted by layer. The sum over all layers
    equals the summed duration of the root spans. *)

val root_ns : t -> float
(** Summed duration of the spans opened with no parent. *)

val write_chrome : t -> out_channel -> extra:(string * string) list -> unit
(** Chrome trace-event JSON (loadable in [chrome://tracing] or Perfetto):
    one complete (["ph":"X"]) event per raw span, times in microseconds
    with nanosecond digits, plus a top-level ["vpp_bench"] object holding
    the span totals, every per-name aggregate and the given [extra] fields,
    whose values must already be JSON. *)

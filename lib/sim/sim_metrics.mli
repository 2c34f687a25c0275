(** Deterministic observability for the simulator.

    Two surfaces, both pure data:

    - {b Cost attribution}: every [Hw_machine.charge] can carry a label;
      labels nest under the spans opened with {!with_span}, giving
      hierarchical paths like ["fault/missing/kernel/migrate"]. Summing a
      path prefix decomposes an emergent total (e.g. a Table 1 row) into
      its charged constituents.
    - {b Latency histograms}: {!observe} feeds log-bucketed histograms
      keyed by operation kind (["disk.read"], ["kernel.fault"], ...),
      answering p50/p95/p99/max without storing samples.

    A metrics sink is {e disabled} by default: every entry point is then a
    no-op, so instrumented code paths behave byte-identically to the
    uninstrumented build. All state is filled in by the (deterministic)
    simulation, so recorded data is seed-for-seed reproducible.

    Span paths are interned: each path is a trie node, created the first
    time it is seen. {!with_span} moves to its span's node; a charge adds
    into the entry of its label's node under the current span — the slot
    of that (span, label) pair, found by physical equality first, then by
    string equality. Counts live in an [int array] and totals in a
    [Float.Array]. Once its slot exists, a charge with the sink on
    allocates nothing, and neither does a span enter/exit whose node
    exists. Path strings are built only when a slot first gets an entry
    and when the sink is read; slots whose paths spell the same string
    share one entry, so every reader sees exactly what a table keyed by
    path strings would hold. A sink that never records allocates nothing
    beyond its record and two hash tables.

    Caveat: the span stack is per-sink (i.e. per machine), not per
    process. Leaving a span pops the innermost open one, whichever process
    opened it, so when simulation processes interleave inside another
    process's span, their charges are attributed under it. The engine is
    deterministic, so the attribution is too — but treat cross-process
    paths as "charged while serving", not strict call-tree ancestry.
    Per-process stacks need a process identity in {!Sim_engine} (ROADMAP
    item 3b). *)

module Hist : sig
  (** Log-bucketed histogram: four buckets per octave (~19% relative
      error), sparse storage, exact count/total/min/max. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit

  val merge : t -> t -> t
  (** Pure: neither argument is mutated. Bucket-wise sum — associative and
      commutative up to float rounding of [total]. *)

  val count : t -> int
  val total : t -> float

  val min_value : t -> float
  (** 0 when empty. *)

  val max_value : t -> float
  (** 0 when empty. *)

  val quantile : t -> float -> float
  (** [quantile t p] for [p] in percent (50.0 = median): nearest-rank over
      the buckets, answering the bucket's upper bound clamped into the
      observed [min, max]. Monotone in [p]; 0 when empty. *)

  val p50 : t -> float
  val p95 : t -> float
  val p99 : t -> float

  val buckets : t -> (int * int) list
  (** Sparse (bucket index, count) pairs, ascending; values [<= 0] are
      counted in {!count} but kept out of the bucket list. *)

  val bucket_upper_bound : int -> float
  (** Upper bound of a bucket index, in the recorded unit. *)
end

type t

val create : ?enabled:bool -> unit -> t
(** Default [enabled:false]. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val reset : t -> unit
(** Drop all recorded data and the open span path; the enabled flag is
    preserved. Leaving a span that was open at the reset does nothing, and
    charges made after it land at the top level. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run a thunk with a span pushed; charges recorded inside get the span's
    name as a path prefix. The span is popped on every exit, an exception
    re-raised with its backtrace; when disabled just runs the thunk. *)

val current_path : t -> string
(** The open span path, outermost first ("" at top level). *)

val record_charge : t -> ?label:string -> float -> unit
(** Attribute a charge of so-many units to [current span path ^ "/" ^
    label] (label defaults to ["unattributed"]). No-op when disabled;
    allocation-free once the (span path, label) slot exists. *)

val observe : t -> kind:string -> float -> unit
(** Feed one latency sample into the histogram for [kind], creating it on
    first use. No-op when disabled. *)

val charges : t -> (string * int * float) list
(** All attribution paths, sorted: (path, number of charges, total units). *)

val charged_total : ?prefix:string -> t -> float
(** Sum of charges whose path starts with [prefix] (all of them by
    default). *)

val kinds : t -> string list
(** Histogram kinds recorded so far, sorted. *)

val hist : t -> kind:string -> Hist.t option

val to_json : t -> Sim_json.t
(** Stable encoding of the full sink (charge table plus latency summaries);
    equal sinks produce byte-identical strings via {!Sim_json.to_string}. *)

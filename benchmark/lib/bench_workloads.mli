(** The benchmark's five workloads, assembled from the layers' public
    functions.

    A workload turns a seed into inputs once, then runs any number of
    identical iterations over them. Each iteration builds its machines
    (timed as set-up), runs them (timed as the run), and reports the
    simulated counters of every layer it can reach plus the correctness
    checks of the result. Simulated counters are a pure function of the
    seed, so every iteration of one run reports the same ones.

    An iteration runs in one of three {!mode}s: timed only, traced (spans
    around its calls into each layer, {!Bench_trace}) or profiled (the
    simulated time charged to the kernel and to managers). *)

type check = {
  what : string;
  ok : bool;
  failed_ops : int;  (** Operations the check found wrong (0 when [ok]). *)
}

type host = {
  ns : int;  (** Monotonic host nanoseconds. *)
  words : int;  (** Minor-heap words allocated. *)
  minor_gcs : int;
  major_gcs : int;
}

type iteration = {
  setup : host;  (** Building machines, kernels, managers and worlds. *)
  run : host;  (** Running them to completion. *)
  ops : int;  (** Operations issued: touches, transactions, tenants or shape checks. *)
  events : int;  (** Simulation events; 0 where the library keeps the engine private. *)
  counters : (string * float) list;
      (** Simulated per-layer values, keyed by metric name. Names absent
          here read as 0 (the layer does not run, or the library keeps it
          private). *)
  checks : check list;
}

type mode =
  | Timed
  | Traced of Bench_trace.t  (** Spans around every call into a layer. *)
  | Profiled
      (** Cost attribution on the machines the benchmark builds, adding
          ["epcm.charged_ms"] and ["mgr.charged_ms"] to the counters. It
          allocates, so it never shares an iteration with spans. *)

type t = {
  name : string;
  prepare : seed:int -> quick:bool -> mode -> iteration;
      (** [prepare ~seed ~quick] generates the inputs and returns the
          iteration. [quick] shrinks every size so the tests stay fast. *)
}

val all : t list
(** [paging; placement; oltp; market; paper]. *)

val find : string -> t option

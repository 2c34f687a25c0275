(** Domain-parallel driver for independent, deterministic experiments.

    The tables, figures, ablations, chaos storms and profile runs are
    self-contained deterministic functions; this module runs a list of
    them on OCaml 5 domains and joins the results in input order, so a
    parallel run's joined output is byte-identical to the sequential
    run's. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val jobs_of_string : string -> (int, string) result
(** Parse a [--jobs] argument: a positive integer, or an error naming
    the bad value. [vpp_repro] reads [--jobs] through it. *)

val map : jobs:int -> (unit -> 'a) list -> 'a list
(** Run the thunks on up to [jobs] domains (clamped to [1 ..] and to the
    task count); results are returned in input order regardless of
    completion order. [jobs <= 1] runs sequentially on the calling domain
    with no domain spawned. An exception from any task is re-raised (with
    its backtrace) after all domains join. *)

val concat : jobs:int -> sep:string -> (unit -> string) list -> string
(** [String.concat sep (map ~jobs tasks)]. *)

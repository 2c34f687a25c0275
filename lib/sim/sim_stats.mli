(** Statistics accumulators used by the experiment runners. *)

(** Streaming summary: count, mean (Welford), variance, min, max. Constant
    memory; suitable for long simulations. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Sample variance; 0 when fewer than two observations. *)

  val min : t -> float
  (** [infinity] when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)

  val total : t -> float
  val merge : t -> t -> t
  (** Combine two summaries as if all observations were added to one. *)
end

(** Full-sample series: keeps every observation, supports exact percentiles.
    Used for response-time distributions where the paper reports worst case. *)
module Series : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val max : t -> float
  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [0,100]; nearest-rank on the sorted
      sample. Raises [Invalid_argument] when empty. *)
end

(** Named event counters with a deterministic rendering order. Managers
    record retry/degradation events ("backing.read_retries",
    "prefetch.degraded_to_demand", …) into a shared set so a chaos
    scenario can report every manager's failure handling in one place. *)
module Counters : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> string -> unit
  val get : t -> string -> int
  (** 0 for a name never incremented. *)

  val to_list : t -> (string * int) list
  (** Sorted by name, so two runs of the same seed render identically. *)

  val total : t -> int
  val clear : t -> unit
end

(** Time-weighted average of a piecewise-constant quantity (e.g. busy
    servers, allocated frames): the integral of the value over time divided
    by elapsed time. *)
module Time_weighted : sig
  type t

  val create : now:float -> init:float -> t
  val set : t -> now:float -> float -> unit
  val average : t -> now:float -> float
end

(** Statistics accumulators used by the experiment runners. *)

(** Full-sample series: keeps every observation, supports exact percentiles.
    Used for response-time distributions where the paper reports worst case. *)
module Series : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 64, at least 1) is the number of samples the
      series holds before it grows by doubling. Nothing is allocated for
      them until the first {!add}: a series created while a run is being
      set up costs its record alone. *)

  val add : t -> float -> unit
  (** Allocates nothing while the series is within its capacity. *)

  val count : t -> int
  val mean : t -> float
  (** Running (Welford) mean; 0 when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [0,100]: the nearest-rank sample, the
      [ceil (p / 100 * count)]-th smallest (at least the first) in
      [Float.compare] order. It is found by selection, which reorders the
      samples in place without sorting them: O(count) expected, O(count
      log count) at worst, and no copy. Raises [Invalid_argument] when
      empty. *)
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

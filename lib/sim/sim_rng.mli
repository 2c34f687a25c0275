(** Deterministic pseudo-random number generation for simulations.

    SplitMix64: fast, high-quality, and trivially reproducible from a seed.
    Every experiment in this repository takes an explicit seed so that
    [dune runtest] and the benchmark harness produce identical output on
    every run. *)

type t

val create : int64 -> t
(** [create seed] returns an independent generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing [t].
    Used to give each simulated process its own stream so that adding a
    process does not perturb the draws of the others. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val float : t -> float
(** Uniform in [0, 1). 53-bit resolution. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean (for Poisson
    inter-arrival times). *)

val uniform : t -> lo:float -> hi:float -> float

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

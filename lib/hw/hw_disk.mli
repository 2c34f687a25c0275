(** Disk device model.

    A single arm served FIFO: a transfer costs
    [seek + rotation/2 + bytes * transfer time]. Around 1992, a page fault
    to disk cost "close to a million instruction times" (paper, §1) —
    roughly 20 ms on a 30+ MIPS machine, which the default parameters
    reproduce. Concurrent requests queue on the arm, so a burst of faults
    serialises, which is exactly the convoy behaviour Table 4's paging
    configuration exhibits. *)

type params = {
  seek_us : float;
  half_rotation_us : float;
  us_per_kb : float;
}

type op = [ `Read | `Write ]

exception Io_error of { op : op; block : int option }
(** Raised by {!read}/{!write} when the attached chaos plan injects a
    failure. The arm has already done its (useless) work: the full service
    time — plus any injected burst — has been charged before the exception
    surfaces, so retries queue behind other traffic exactly as on a real
    disk. *)

type t

val create : Sim_engine.t -> ?params:params -> unit -> t
(** No chaos plan attached; every transfer succeeds. [params] defaults
    to ~12 ms seek, ~8.3 ms rotation (3600 rpm), ~0.65 µs/byte (≈1.5 MB/s
    sustained): a typical 1992 SCSI disk. *)

val set_chaos : t -> Sim_chaos.t option -> unit
(** Attach (or detach, with [None]) a fault plan. With [None] — the
    default — the transfer path is byte-identical to a plan-free disk:
    no RNG draws, no extra charges, no recording. *)

val set_metrics : t -> Sim_metrics.t option -> unit
(** Attach a metrics sink; when the sink is enabled, every transfer made
    inside a simulation process records its end-to-end latency (queueing +
    service + injected bursts, even on injected failure) under kind
    ["disk.read"] / ["disk.write"]. With no sink, or a disabled one, the
    transfer path does no extra work. *)

val metrics : t -> Sim_metrics.t option
(** The attached sink, if any — layers built over the disk (backing
    stores, the WAL) observe their own end-to-end latencies into it. *)

val access_time_us : t -> bytes:int -> float
(** Raw service time for one transfer, without queueing. *)

val read : t -> bytes:int -> unit
(** Blocks the calling process for queueing + service time.

    @raise Io_error if the chaos plan fails this attempt. *)

val write : t -> bytes:int -> unit
(** @raise Io_error if the chaos plan fails this attempt. *)

val read_at : t -> block:int -> bytes:int -> unit
(** Like {!read}, naming the block so the chaos plan's bad-block list can
    match it. Anonymous {!read}s only see probabilistic/outage injection. *)

val write_at : t -> block:int -> bytes:int -> unit

val reads : t -> int
val writes : t -> int
val bytes_read : t -> int
val bytes_written : t -> int

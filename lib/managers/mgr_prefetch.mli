(** Prefetching segment manager for out-of-core scans.

    The paper's motivating example (§1): a large-scale particle simulation
    scans 200 MB per simulated time step — ample time to overlap disk
    read-ahead and writeback with computation {e if} the operating system
    supports application-directed read-ahead, and to discard dead
    intermediate pages instead of writing them back, conserving I/O
    bandwidth.

    This manager serves demand faults from disk, accepts explicit
    [prefetch] requests that fill pages asynchronously (a forked process
    per request), and lets the application [discard] pages it knows are
    dead — even dirty ones — with no writeback. A demand fault on a page
    whose prefetch is in flight simply waits for it. *)

type t

val create :
  Epcm_kernel.t ->
  ?disk:Hw_disk.t ->
  ?retry:Mgr_backing.retry ->
  source:Mgr_generic.source ->
  pool_capacity:int ->
  unit ->
  t
(** [retry] bounds the backing store's attempts per transfer. A forked
    prefetch that exhausts its retry budget dies silently — the page
    stays absent and a fault on it degrades to an inline demand fill
    rather than wedging on the gate. *)

val create_file_segment : t -> name:string -> file_id:int -> pages:int -> Epcm_segment.id
(** Data lives on disk; nothing resident initially. *)

val prefetch : t -> seg:Epcm_segment.id -> page:int -> count:int -> unit
(** Start asynchronous fills for any of the pages that are absent and not
    already in flight. Returns immediately. *)

val discard : t -> seg:Epcm_segment.id -> page:int -> count:int -> unit
(** Drop resident pages without writeback (application knows they are
    dead). *)

val resident : t -> seg:Epcm_segment.id -> int

val backing : t -> Mgr_backing.t
(** The disk store the manager reads pages from (its retry and failure
    counts). *)

(** {2 Statistics} *)

val prefetches_started : t -> int
val demand_fills : t -> int  (** Faults that had to read the disk inline. *)

val absorbed_faults : t -> int
(** Faults that found a prefetch in flight and only waited for it. *)

val discards : t -> int

val prefetch_failures : t -> int
(** Forked prefetches that died on a backing failure (page left absent). *)

val degraded_to_demand : t -> int
(** Faults that waited on a failed prefetch and then filled inline. *)

(** The default segment manager (paper §2.3): the UIO Cache Directory
    Server extended to manage the V++ virtual memory as a file page cache,
    making conventional programs oblivious to external page-cache
    management.

    It runs as a separate server process ([`Separate_process] fault
    delivery — the 379 µs path of Table 1), maintains a per-file cache
    directory, allocates file-append pages in 16 KB (4-page) units, and
    re-enables clock-sampling protections in batches of contiguous pages.
    Files stay cached after close, as UCDS does. *)

type t

val create :
  Epcm_kernel.t ->
  ?backing:Mgr_backing.t ->
  ?source:Mgr_generic.source ->
  ?pool_capacity:int ->
  unit ->
  t
(** [backing] defaults to the zero-latency memory store (the Tables 2–3
    setup: files pre-cached, no disk in the measurement). *)

val generic : t -> Mgr_generic.t
val manager_id : t -> Epcm_manager.id

val open_file :
  t -> file_id:int -> size_pages:int -> ?preload:bool -> ?empty:bool -> unit -> Epcm_segment.id
(** Add a file to the cache directory. [preload] (default false) loads
    every page now — used to warm the cache before a measured run.
    [empty] (default false) marks a newly created file: no valid backing
    data, so all writes are appends. Opening an already-open file returns
    the existing segment (cache hit, no new manager activity). *)

val close_file : t -> Epcm_segment.id -> unit
(** The kernel forwards file close to the manager; the file {e stays
    cached} (UCDS writes dirty data back lazily — use {!flush_file} to
    force it). Counts as a manager call: the paper's Table 3 counts
    closes among manager invocations. *)

val flush_file : t -> Epcm_segment.id -> unit
(** Write every dirty page of the file back to backing store and clean the
    flags. A page whose write exhausts the backing retry budget keeps its
    dirty flag, and the next flush retries it. *)

val admin_call : ?requests:int -> t -> unit
(** Other kernel-forwarded requests (open of a new file, fstat, unlink):
    each costs an IPC round trip to the manager server and counts as a
    manager call. *)

val create_heap : t -> name:string -> pages:int -> Epcm_segment.id
(** Anonymous segment (program data/stack) managed by this server. First
    touches take the minimal fault — no zero-fill, per the paper. *)

val file_segment : t -> file_id:int -> Epcm_segment.id option

val total_manager_calls : t -> int
(** Fault deliveries + close notifications + admin requests — the Table 3
    "Manager Calls" column. *)

val closes : t -> int

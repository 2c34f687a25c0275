(** Application-specific segment manager for the database system of §3.3.

    Built on {!Mgr_generic} with in-process fault delivery (a DBMS wants
    the 107 µs path, not the 379 µs server path). It manages:

    - {e relations}: preloaded, pinned resident — the paper's 120 MB
      database fits memory in all configurations;
    - {e indices}: 1 MB segments that the DBMS may load from disk
      (page-by-page faults — the "index with paging" configuration),
      regenerate in memory from their relation ("index regeneration"), or
      evict wholesale when the SPCM shrinks the allocation. Index pages
      are clean (joins update the summary relation, not the indices), so
      eviction is a discard, exactly the Subramanian-style saving the
      paper cites.

    The manager knows which indices are resident and when each was last
    used — the knowledge "which pages are in memory" that the paper says
    a query optimiser should have. *)

type t

type index_id = int

val create :
  Epcm_kernel.t ->
  ?disk:Hw_disk.t ->
  ?name:string ->
  source:Mgr_generic.source ->
  pool_capacity:int ->
  unit ->
  t
(** [disk] defaults to the machine's disk; index loads read it. [name]
    (default ["dbms-manager"]) names the underlying generic manager —
    give each instance its own when several coexist (one per database
    shard). All per-manager state (indices, relation backing-file ids,
    the free-page pool) is per-instance; two instances on one kernel do
    not interfere. *)

val generic : t -> Mgr_generic.t

val create_relation : t -> name:string -> pages:int -> Epcm_segment.id
(** Created, fully populated from the free pool, and pinned. *)

val create_index : t -> name:string -> pages:int -> ?resident:bool -> unit -> index_id
(** [resident] (default true) populates the index now. *)

val index_segment : t -> index_id -> Epcm_segment.id
val index_resident : t -> index_id -> bool
val resident_index_pages : t -> int

val touch_index : t -> index_id -> pages:int list -> unit
(** A transaction reads index pages (they must be resident — check with
    {!index_resident} and load/regenerate first; touching a non-resident
    index faults it in page by page from disk, which is exactly the
    paging-configuration behaviour, so callers may also do it on
    purpose). *)

val load_index_from_disk : t -> index_id -> unit
(** Fault in every page of the index through the normal fault path; each
    fill is a disk read. The "index with paging" page-in. *)

val regenerate_index : t -> index_id -> unit
(** Repopulate the index from pooled frames with locally generated data —
    no disk I/O. The caller is responsible for charging the regeneration
    {e compute} time (it is application work, not manager work). *)

val evict_index : t -> index_id -> unit
(** Drop all the index's frames back into the manager pool. Clean pages:
    no writeback. No-op if already out. *)

val evict_lru_index : t -> except:index_id option -> index_id option
(** Evict the least-recently-used resident index (other than [except]). *)

val note_index_use : t -> index_id -> now:float -> unit
val page_in_events : t -> int
val regenerations : t -> int

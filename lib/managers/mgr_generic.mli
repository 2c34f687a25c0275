(** Generic segment manager (paper §2.2).

    The paper argues an application manager should be "specialised from a
    generic or standard segment manager": the generic part provides the
    free-page segment, fault handling, a second-chance clock over resident
    pages ({!Mgr_clock}), writeback and interaction with the system page
    cache manager; applications override the page-fill, allocation-batch
    and eviction hooks. {!Mgr_default} and {!Mgr_dbms} are such hook
    sets.

    Managers with a fault path of their own ({!Mgr_tiered}, {!Mgr_gc},
    {!Mgr_compressed}, {!Mgr_checkpoint}, {!Mgr_dsm}, {!Mgr_prefetch},
    {!Mgr_coloring}) share the mechanism written once below and in
    {!Mgr_free_pages}. *)

type seg_kind =
  | Anon  (** Heap/stack-like: new pages have no backing data. *)
  | File of { file_id : int }  (** Cached file: pages back onto blocks. *)

type hooks = {
  fill :
    seg:Epcm_segment.id -> page:int -> kind:seg_kind -> high_water:int -> Hw_page_data.t option;
      (** Data for a missing page, or [None] to hand the frame over as-is
          (the minimal fault: first heap touch, file append). Default: read
          the block from backing for [File] pages below the high-water
          mark, [None] otherwise. *)
  batch_of : seg:Epcm_segment.id -> page:int -> kind:seg_kind -> high_water:int -> int;
      (** Pages to allocate on one missing fault (contiguous, single
          [MigratePages]). Default 1. The default manager returns 4 for
          file appends — the paper's 16 KB append allocation. *)
  on_eviction :
    seg:Epcm_segment.id -> page:int -> dirty:bool -> [ `Writeback | `Discard ];
      (** Default: [`Writeback] when dirty, [`Discard] otherwise. A
          Subramanian-style manager discards known-garbage dirty pages. *)
  reprotect_batch : int;
      (** Contiguous pages to re-enable on one sampling (protection) fault;
          the paper's default manager does this "to reduce the overhead of
          handling these faults". Default 8. *)
}

val default_hooks : backing:Mgr_backing.t -> hooks

type source = Mgr_free_pages.source
(** Ask the system page cache manager for frames, migrated into
    [dst_page..] of [dst]; returns how many were granted. *)

type sp_source = dst:Epcm_segment.id -> dst_page:int -> int
(** Ask the system page cache manager for one whole aligned superpage run
    migrated to superpage-aligned [dst_page] of [dst] (typically
    {!Epcm_kernel.grant_superpage_run} behind a cursor). Returns the
    number of frames granted: [Epcm_kernel.super_pages] on success, [0]
    when no aligned run was available — the fault then falls back to the
    ordinary 4 KB path. *)

exception Out_of_frames of string
(** No pool frames, the source granted nothing, and nothing was
    reclaimable. Every manager raises this one. *)

(** {2 Mechanism every manager shares} *)

val charge_fault_logic : Epcm_kernel.t -> unit
(** Charge one fault's decision logic ([mgr/fault_logic]). *)

val unprotect : Epcm_kernel.t -> seg:Epcm_segment.id -> page:int -> unit
(** Clear [no_access] and [read_only] on one page. *)

val need_frame : Mgr_free_pages.t -> source:source -> who:string -> unit
(** For a manager without a clock: refill an empty pool with up to 32
    frames; {!Out_of_frames} (naming [who]) if it stays empty. *)

val pager : Epcm_kernel.t -> name:string -> source -> Epcm_manager.id
(** A pool-less in-process pager: a missing or copy-on-write fault takes
    one frame from [source] (the placement policy), a protection fault
    is {!unprotect}ed. *)

val register_serialised :
  Epcm_kernel.t ->
  name:string ->
  mode:Epcm_manager.mode ->
  serving:Sim_sync.Semaphore.t ->
  serve:('a -> Epcm_manager.fault -> unit) ->
  on_close:('a -> Epcm_segment.id -> unit) ->
  on_pressure:('a -> pages:int -> int) ->
  'a ->
  Epcm_manager.id
(** Register a manager serving one fault at a time on [serving]: each
    fault charges {!charge_fault_logic}, then runs [serve] under the
    lock. The SPCM pressure callback runs [on_pressure] only if
    [serving] is free and declines (0) otherwise — blocking would
    deadlock against a fault handler blocked on an SPCM request. The
    callbacks take the manager as their first argument, so these
    closures are built once per manager. *)

type stats = {
  mutable fills : int;
  mutable cow_fills : int;
  mutable protection_clears : int;
  mutable reclaimed : int;
  mutable writebacks : int;
  mutable discards : int;
  mutable refill_requests : int;
  mutable frames_from_source : int;
  mutable closes : int;
  mutable fill_failures : int;
      (** Missing faults abandoned because backing reads exhausted their
          retry budget ({!Mgr_backing.Backing_failed} re-raised to the
          faulting process; no frame left the pool). *)
  mutable writeback_failures : int;
      (** Evictions skipped (page left resident + dirty) because the
          backing write exhausted its budget or the eviction hook vetoed
          it. *)
  mutable close_writeback_losses : int;
      (** Dirty [File] pages whose writeback failed the same way at
          {!close_segment}: their data is lost with the segment. *)
}

type t

val create :
  Epcm_kernel.t ->
  name:string ->
  mode:Epcm_manager.mode ->
  backing:Mgr_backing.t ->
  ?source:source ->
  ?sp_source:sp_source ->
  ?hooks:hooks ->
  ?pool_capacity:int ->
  ?refill_batch:int ->
  ?reclaim_batch:int ->
  unit ->
  t
(** Registers the manager with the kernel and creates its free-page
    segment. [pool_capacity] defaults to 1024 slots; [refill_batch] (frames
    per SPCM request) to 32; [reclaim_batch] to 16. *)

val kernel : t -> Epcm_kernel.t
val manager_id : t -> Epcm_manager.id
val pool : t -> Mgr_free_pages.t
val backing : t -> Mgr_backing.t
val stats : t -> stats

val segment_kind : t -> Epcm_segment.id -> seg_kind option
(** The kind a managed segment was created with ([None] for
    segments this manager does not own) — lets callers and tests see the
    backing [file_id] a [File] segment addresses. *)

val create_segment :
  t ->
  name:string ->
  pages:int ->
  kind:seg_kind ->
  ?high_water:int ->
  ?superpages:bool ->
  unit ->
  Epcm_segment.id
(** Create a fresh segment already managed by this manager
    ([SetSegmentManager]). [high_water] (default 0) is the number of pages
    with valid backing data (file size). [superpages] (default [false])
    opts the segment into 2 MB mappings ({!Epcm_kernel.set_superpages}); a
    missing fault on an empty superpage-aligned region then first asks
    [sp_source] — when one was given to {!create} — for a whole aligned
    run before falling back to 4 KB fills. *)

val close_segment : t -> Epcm_segment.id -> unit
(** Destroy the segment. Every dirty page of a [File] segment goes
    through the eviction hook first ([`Writeback] writes it to its block,
    [`Discard] drops it; a failed write counts in [close_writeback_losses]
    and the close goes on); dirty [Anon] pages are dropped (counted in
    [discards]). Resident frames are reclaimed into the pool while it has
    room; the kernel returns the rest to the initial segment. *)

val ensure_pool : t -> count:int -> unit
(** Make sure at least [count] frames are pooled, refilling from the
    source and then reclaiming. Raises {!Out_of_frames}. *)

val reclaim : t -> count:int -> int
(** Run the clock until [count] frames have been moved into the pool (or
    the clock finds nothing evictable); returns the number reclaimed. *)

val return_to_system : t -> pages:int -> int
(** Give frames back to the kernel's initial segment (reclaiming first if
    the pool is short); returns frames actually returned. Serialised
    against fault handling on the manager's serving lock — pool scans
    charge simulated time step by step and must not interleave. The
    registered SPCM pressure callback uses a non-blocking variant: if the
    manager is mid-fault it declines (returns 0) rather than deadlock
    against a fault handler that is itself blocked on an SPCM request. *)

val swap_out : t -> int
(** The §2.2 suspension protocol: evict every unpinned page of every
    managed segment (dirty data goes to the backing/swap store) and
    return all pooled frames to the system. Returns frames released.
    Serialised like {!return_to_system}. *)

val swap_in : t -> unit
(** Eagerly fault swapped pages back in (demand faulting would also
    restore them lazily, with correct data, via the swap-aware fill). *)

val pin : t -> seg:Epcm_segment.id -> page:int -> count:int -> unit

val lock_in_memory : t -> seg:Epcm_segment.id -> unit
(** The §2.2 initialisation protocol for a manager's own code and data:
    touch every page to force it in, pin, then re-verify residency,
    retrying until a pass completes with no fault. *)

val protect_for_sampling : t -> seg:Epcm_segment.id -> unit
(** Set [no_access] on all resident pages so the next touches fault and
    reveal the working set (the default manager's clock sampling). *)

val resident : t -> seg:Epcm_segment.id -> int

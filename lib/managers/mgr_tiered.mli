(** Tiered-memory segment manager: hot/cold placement across the
    machine's frame tiers.

    The tier-indexed physical memory ({!Hw_phys_mem.create_tiered}) gives
    a manager frames with different access and migration costs. This
    manager runs a three-level hierarchy over them, entirely with the
    paper's external page-cache operations:

    - {b fast tier} — pages fault in here ([MigratePages] with a tier
      constraint from a tier-pure free-page pool).
    - {b slow tier} — when the fast tier runs dry, the fast tier's
      {!Mgr_clock} (the second-chance clock {!Mgr_generic} also runs,
      scoped to the tier) demotes cold pages onto slow-tier frames,
      contents intact, and protects them with [no_access]. The next
      touch raises a protection fault and the page is promoted back to
      a fast frame — that fault {e is} the
      hotness signal, exactly the paper's §2.3 page-protection sampling.
    - {b compressed store} — the slow tier's clock demotes cold pages
      into {!Mgr_compressed}'s store ({!Mgr_compressed.stash}); a later
      missing fault fetches them back ({!Mgr_compressed.fetch}, falling
      through to its disk spill area) into a fast frame.

    Frames come straight from the kernel's initial segment
    ({!Epcm_kernel.initial_slots} scoped to the tier, which answers in
    O(1) once the tier has no free frame), so tier capacity itself is
    the residency bound: the demotion cascade starts when a tier's free
    frames run out.

    Both pools are {e tier-pure} — every hand-out passes [~tier], so the
    kernel's [Tier_mismatch] check audits purity on each allocation.
    Faults are served one at a time and the SPCM pressure callback
    declines when mid-fault ({!Mgr_generic.register_serialised}); a fault
    that cannot secure a fast frame even after refill and a full
    demotion sweep raises {!Mgr_generic.Out_of_frames}. *)

type stats = {
  mutable fills : int;  (** Fresh pages faulted into the fast tier. *)
  mutable refetches : int;
      (** Missing faults served from the compressed store or its spill
          area rather than a fresh fill. *)
  mutable promotions : int;  (** Slow [->] fast, via protection fault. *)
  mutable demotions_slow : int;  (** Fast [->] slow clock evictions. *)
  mutable demotions_compressed : int;  (** Slow [->] compressed store. *)
  mutable protection_clears : int;
      (** Protection faults resolved in place (no promotion). *)
  mutable cow_fills : int;
  mutable sp_fills : int;
      (** Missing faults served by one whole superpage-run grant from the
          fast tier (each also counts [super_pages] towards [fills]). *)
}

type t

val create :
  Epcm_kernel.t ->
  ?name:string ->
  ?fast_tier:int ->
  ?slow_tier:int ->
  ?compressed_config:Mgr_compressed.config ->
  ?fast_pool_capacity:int ->
  ?slow_pool_capacity:int ->
  ?refill_batch:int ->
  ?reclaim_batch:int ->
  unit ->
  t
(** Registers the manager and builds its private {!Mgr_compressed}
    backend (whose own fault handler is never exercised — only
    [stash]/[fetch] are used). [fast_tier] defaults to tier 0 and
    [slow_tier] to tier 1; they must be distinct and in range for the
    machine. *)

val create_segment :
  t -> name:string -> pages:int -> ?superpages:bool -> unit -> Epcm_segment.id
(** [superpages] (default [false]) opts the segment into 2 MB mappings
    ({!Epcm_kernel.set_superpages}): a missing fault on a fully-empty
    aligned region is then served by one contiguous fast-tier run grant
    ({!Epcm_kernel.grant_superpage_run}) — promoted as part of the
    migrate — with per-page fills as the fallback. Clock demotion of any
    page of a promoted run splits it back to 4 KB automatically (the
    kernel demotes on the slot invalidation). *)

val stats : t -> stats

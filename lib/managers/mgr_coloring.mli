(** Page-coloring segment manager.

    On a physically-indexed cache, the cache set a virtual page occupies
    is decided by the physical frame the kernel picked. A conventional
    kernel picks arbitrarily; this manager implements the paper's
    application-specific page coloring: virtual page [p] of a managed
    segment gets a frame of color [p mod n_colors], using the SPCM's
    color-constrained allocation ([GetPageAttributes] exposes physical
    addresses, so the manager can verify what it got).

    The placement policy runs against the {e live} cache geometry: on a
    machine carrying a cache model ({!Hw_machine.create} [?cache]), a
    frame's color is the set group its physical address actually maps to
    ({!Hw_cache.color_of} in the cache of the frame's tier) and
    [n_colors] defaults to {!Hw_machine.cache_colors}; without a cache it
    falls back to {!Hw_phys_mem.color}. Before asking the source for a
    specific color, the manager probes availability through
    {!Hw_phys_mem.frames_of_color} (scoped by [?tier] when the manager
    is tier-bound), so a color the system has
    run out of degrades to best-effort without a futile round-trip.

    Unlike {!Mgr_free_pages}, the pool here is slot-addressed, not
    compact: frames of different colors coexist and are picked by
    color. *)

type t

type colored_source =
  color:int option -> dst:Epcm_segment.id -> dst_page:int -> count:int -> int
(** Like {!Mgr_generic.source} with an optional color constraint. *)

val create :
  Epcm_kernel.t ->
  ?n_colors:int ->
  ?tier:int ->
  source:colored_source ->
  pool_capacity:int ->
  unit ->
  t
(** [n_colors] defaults to the machine's live cache geometry
    ({!Hw_machine.cache_colors}) when a cache is attached, else to
    {!Hw_phys_mem.n_colors}. [tier] scopes the availability probe to one
    memory tier — a manager placing only fast-tier frames; the source it
    is given should then grant frames of that tier. *)

val manager_id : t -> Epcm_manager.id

val create_segment : t -> name:string -> pages:int -> Epcm_segment.id
(** Anonymous segment whose faults are served color-matched. *)

val audit : t -> seg:Epcm_segment.id -> int * int
(** (correctly colored resident pages, total resident pages). With a
    cooperative SPCM the first equals the second. *)

val color_misses : t -> int
(** Faults the manager could not serve with the preferred color (SPCM had
    no frame of it) and served with an arbitrary frame instead. *)

(** The V++ kernel virtual-memory system with external page-cache
    management (paper §2.1).

    The kernel provides segments, bound regions and page-frame migration —
    and {e nothing else}: no page reclamation, no writeback, no replacement
    policy. Those live in process-level managers. The kernel's only jobs
    are to maintain hardware translations, to forward fault events to the
    manager designated for each segment, and to move page frames between
    segments on request.

    Timing: operations charge the machine's {!Hw_cost} table step by step
    when called from inside a simulation process. Called outside a process
    (plain unit tests), they perform the same state transitions with no
    time passing. *)

type error =
  | No_such_segment of int
  | Dead_segment of int
  | Page_out_of_range of { seg : int; page : int; length : int }
  | Frame_present of { seg : int; page : int }
  | No_frame of { seg : int; page : int }
  | No_manager of int  (** Segment has no manager to deliver a fault to. *)
  | No_such_manager of int
  | Binding_overlap of { seg : int; at : int; len : int }
  | Binding_out_of_range of { seg : int; at : int; len : int }
  | Page_size_mismatch of { src : int; dst : int }
  | Fault_recursion of { manager : int; depth : int }
  | Unresolved_fault of { seg : int; page : int }
      (** A manager's fault handler returned without mapping a frame. *)
  | Initial_segment_operation
  | Tier_mismatch of { seg : int; page : int; frame : int; want : int; got : int }
      (** [MigratePages ~tier] found a source frame outside the requested
          memory tier. *)

exception Error of error

val error_to_string : error -> string

type page_attributes = {
  pa_flags : Epcm_flags.t;
  pa_frame : int option;
  pa_phys_addr : int option;  (** Physical address — the paper exports this
                                  for coloring / placement control. *)
}

type stats = {
  mutable faults_missing : int;
  mutable faults_protection : int;
  mutable faults_cow : int;
  mutable manager_calls : int;
  mutable migrate_calls : int;
  mutable migrated_pages : int;
  mutable modify_flag_calls : int;
  mutable get_attribute_calls : int;
  mutable uio_reads : int;
  mutable uio_writes : int;
  mutable page_copies : int;
  mutable page_zeros : int;
  mutable touches : int;
  mutable sp_promotions : int;
      (** Aligned 4 KB runs folded into one 2 MB superpage mapping. *)
  mutable sp_demotions : int;
      (** Superpage regions split back to 4 KB granularity. *)
}

type t

val create : Hw_machine.t -> t
val machine : t -> Hw_machine.t
val stats : t -> stats
val manager_calls_of : t -> Epcm_manager.id -> int

(** {2 Boot-time state} *)

val initial_segment : t -> Epcm_segment.id
(** The well-known segment created at initialisation holding every page
    frame in physical-address order (paper §2.1). The system page cache
    manager allocates from it with [MigratePages]. It cannot be destroyed,
    bound, or given away. *)

(** {2 Managers} *)

val register_manager :
  t ->
  name:string ->
  mode:Epcm_manager.mode ->
  on_fault:(Epcm_manager.fault -> unit) ->
  ?on_close:(Epcm_segment.id -> unit) ->
  ?on_pressure:(pages:int -> int) ->
  unit ->
  Epcm_manager.id

val manager : t -> Epcm_manager.id -> Epcm_manager.t

val set_segment_manager : t -> Epcm_segment.id -> Epcm_manager.id -> unit
(** The [SetSegmentManager] kernel operation. *)

(** {2 Segments} *)

val create_segment :
  t ->
  ?page_size:int ->
  ?manager:Epcm_manager.id ->
  name:string ->
  pages:int ->
  unit ->
  Epcm_segment.id
(** [page_size] defaults to the machine page size; other values model
    multiple-page-size hardware (Alpha). *)

val destroy_segment : t -> Epcm_segment.id -> unit
(** Notifies the manager ([on_close]) first; any frames still resident
    afterwards are returned to the initial segment. *)

val grow_segment : t -> Epcm_segment.id -> pages:int -> unit
val segment : t -> Epcm_segment.id -> Epcm_segment.t
val segment_exists : t -> Epcm_segment.id -> bool

val bind_region :
  t ->
  space:Epcm_segment.id ->
  at:int ->
  len:int ->
  target:Epcm_segment.id ->
  target_page:int ->
  cow:bool ->
  unit
(** Bind [len] pages of [target] starting at [target_page] into [space] at
    [at]. Regions bound into one segment must not overlap. A reference to a
    covered page forwards to the target unless the space has since gained a
    private page there (which is how completed copy-on-write looks). *)

(** {2 The page-cache management operations} *)

val migrate_pages :
  t ->
  src:Epcm_segment.id ->
  dst:Epcm_segment.id ->
  src_page:int ->
  dst_page:int ->
  count:int ->
  ?tier:int ->
  ?set_flags:Epcm_flags.t ->
  ?clear_flags:Epcm_flags.t ->
  unit ->
  unit
(** [MigratePages]: move page frames (and their contents and flags) from
    [src] to [dst], applying the set/clear masks. Destination slots must be
    empty; source slots must be resident. All translations for both slots
    are invalidated.

    [tier], when given, asserts every moved frame belongs to that memory
    tier (placement control: a manager demanding fast-DRAM frames);
    otherwise the call fails with {!error.Tier_mismatch} before any page
    moves. On multi-tier machines each moved page also charges its tier's
    [tier_migrate_us] surcharge (label ["kernel/tier_migrate"]); on a
    single-tier machine the pass is skipped entirely, so flat machines are
    byte-identical to the pre-tier kernel. *)

val modify_page_flags :
  t ->
  seg:Epcm_segment.id ->
  page:int ->
  count:int ->
  ?set_flags:Epcm_flags.t ->
  ?clear_flags:Epcm_flags.t ->
  unit ->
  unit
(** [ModifyPageFlags] — unlike Unix [mprotect], this can also set and clear
    [dirty] and [referenced]. Changing protection flags flushes affected
    translations. *)

val get_page_attributes :
  t -> seg:Epcm_segment.id -> page:int -> count:int -> page_attributes array
(** [GetPageAttributes]: flags plus physical frame address per page. *)

val release_frames : t -> seg:Epcm_segment.id -> page:int -> count:int -> unit
(** Return resident frames in the range to the initial segment (frame [f]
    goes to the first free initial slot at or cyclically after index [f]).
    Non-resident pages in the range are skipped. *)

val zero_pages : t -> seg:Epcm_segment.id -> page:int -> count:int -> unit
(** Explicit zero-fill (charged per page). V++ does not zero on allocation
    — the paper credits this for most of its fault-time win — so zeroing
    is a separate operation a manager uses only when handing frames across
    protection domains. *)

(** {2 Superpages (2 MB mappings)}

    A segment manager can opt a segment into superpage-backed translation.
    Once opted in, any region of [super_pages] (machine default 512)
    consecutive, region-aligned pages that is fully resident on an equally
    aligned physical frame run — typically installed by one batched
    {!migrate_pages} — is {e promoted}: one 2 MB entry covers the run in
    the mapping hash and TLB, so warm references and refills touch one
    entry instead of 512. Any translation change inside a promoted region
    (protection change, partial eviction, partial migrate, teardown)
    {e demotes} it back to 4 KB first. Residency bookkeeping never leaves
    4 KB granularity: the per-segment resident counters and the frame
    conservation audits are exact throughout. Each superpage pass reads
    the opt-in and promoted regions of the segment it is working on, so a
    segment that never opted in — and every segment of a machine where
    none did — takes the 4 KB paths unchanged. *)

val set_superpages : t -> seg:Epcm_segment.id -> enabled:bool -> unit
(** Opt a segment in or out of superpage mappings. Opting out demotes all
    its promoted regions. Not permitted on the initial segment. *)

val super_pages : t -> int
(** Base pages per superpage, from the machine ({!Hw_machine.super_pages}). *)

val grant_superpage_run :
  ?tier:int -> t -> dst:Epcm_segment.id -> dst_page:int -> start:int -> int option
(** Find the first aligned free run suitable to back one superpage — all
    [super_pages t] frames sit in the initial segment {e in their boot
    slots} (slot i holds frame i), at or after [start], optionally within
    one memory tier — and move it into [dst] at superpage-aligned
    [dst_page] with one contiguous {!migrate_pages}; when [dst] is opted
    in, the region promotes as part of the migrate. Returns the base
    frame granted (the caller's next [start] cursor), or [None] when no
    aligned run is available — the caller falls back to 4 KB grants. A
    manager advancing [start] monotonically scans each frame at most once
    per streaming pass. *)

(** {2 Memory references and file access} *)

val touch : t -> space:Epcm_segment.id -> page:int -> access:Epcm_manager.access -> unit
(** One memory reference: TLB, then mapping hash, then segment walk, then —
    if the page is missing or protected — the full fault protocol of
    Figure 2 against the responsible manager. Returns when the reference
    has been satisfied. *)

val uio_read : t -> seg:Epcm_segment.id -> page:int -> Hw_page_data.t
(** Block read from a cached file segment via the UIO interface: faults the
    page in through the manager if needed, then copies out one block
    (= one page). *)

val uio_write : t -> seg:Epcm_segment.id -> page:int -> Hw_page_data.t -> unit
(** Block write: faults/allocates the page via the manager if needed, then
    copies the data in and marks the page dirty. *)

(** {2 Introspection for tests and the Figure 1/2 reproduction} *)

val resolve_slot : t -> space:Epcm_segment.id -> page:int -> (Epcm_segment.id * int) option
(** Follow bindings from ([space], [page]) to the slot that holds (or would
    hold) the frame, without faulting or charging time. [None] if the page
    is unmapped and unbound. *)

val frame_owner_audit : t -> (int * int) list
(** (segment id, resident frames) for all live segments, for tests and
    reports that want the breakdown; {!audit} is the conservation
    verdict. The sum over all segments always equals the number of
    physical frames. Uses the per-segment incremental resident counters:
    O(live segments), not O(segments × pages). *)

val frame_owner_audit_scan : t -> (int * int) list
(** The same audit computed by scanning every segment's page array — the
    O(segments × pages) reference that the equivalence tests pin
    {!frame_owner_audit} against after every chaos storm. *)

val frame_owner_total : t -> int
(** The sum of {!frame_owner_audit}: total frames owned by live segments.
    Chaos scenarios assert it equals the machine's frame count after every
    fault storm — injected failures must never leak a frame. *)

val frame_owner_audit_tiered : t -> (int * int array) list
(** Per-tier conservation: (segment id, resident frames per memory tier)
    for all live segments, from the incremental per-tier counters. Summing
    tier column [k] over all segments always equals tier [k]'s frame
    count. *)

val frame_owner_audit_tiered_scan : t -> (int * int array) list
(** The per-tier audit computed by scanning every page array — the
    O(segments × pages) reference {!frame_owner_audit_tiered} is pinned
    against. *)

val audit : t -> bool
(** Frame conservation, the one predicate every record and suite states
    it with: for each live segment the incremental resident counters
    equal a scan of its page array, flat and per memory tier; the frames
    owned by live segments add up to the machine's frame count; and no
    simulation process is left parked ({!Sim_engine.live_processes} is
    0). One pass over the segments; builds no lists. *)

type observation = {
  o_frames : int;  (** Physical frames on the machine. *)
  o_touches : int;  (** Memory references issued. *)
  o_faults : int;  (** Missing + protection + copy-on-write faults delivered. *)
  o_migrate_calls : int;
  o_migrated_pages : int;
  o_events : int;  (** Simulation-engine events executed. *)
  o_sim_us : float;  (** The simulated clock. *)
  o_conserved : bool;  (** {!audit}. *)
}
(** What every record leg reports of the kernel that ran it. *)

val observe : t -> observation
(** The kernel's counters and machine clock now, with {!audit}'s verdict. *)

val initial_source :
  ?budget:int -> t -> dst:Epcm_segment.id -> dst_page:int -> count:int -> int
(** A frame source standing in for the SPCM (paper §2.4) where one does
    not matter: grants up to [count] initial-segment frames into
    consecutive pages of [dst] from [dst_page], one single-page
    {!migrate_pages} each, and returns how many it granted. Slots are
    taken in ascending order from one monotone cursor (O(frames) over
    the source's life), and each slot is claimed before it is migrated,
    so managers sharing one source never pick the same frame even when a
    migrate's charge blocks. [budget] caps the total granted over the
    source's life (default unlimited). Each application
    [initial_source ?budget t] is a fresh cursor. *)

val initial_slots : ?tier:int -> ?filter:(int -> bool) -> t -> limit:int -> int list
(** The one free-frame walk: up to [limit] initial-segment slots currently
    holding a frame, ascending — restricted to one memory tier when
    [tier] is given, and to frames [filter] accepts (it is passed the
    frame index). Tier-aware managers refill their per-tier pools
    through it, and the SPCM serves every request constraint with it
    ([Tier] as [tier], [Color] and [Phys_range] as a [filter]).

    The walk stops once it has seen as many frames of its scope as the
    initial segment's resident counter holds ([resident], or
    [resident_by_tier.(tier)], of {!Epcm_segment.t}), so it never passes
    the last free frame, and a tier with no free frame — or an unknown tier id, which
    answers [[]] — costs O(1) however large the machine. It keeps no
    state between calls. *)

val render_address_space : t -> Epcm_segment.id -> string
(** Figure 1-style dump of a composed address space. *)

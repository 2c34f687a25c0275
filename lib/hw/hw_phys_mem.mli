(** Physical memory: tier-indexed pools of page frames.

    A frame is an index, [0 .. n_frames-1]. Per frame the machine stores
    only what changes: its contents ({!data}) and the kernel's owner tag
    ({!owner}). A machine is built from one or more {e tiers} (fast DRAM,
    slow CXL/NVM-like DRAM, …), each a contiguous run of frames with its
    own per-access / per-migration {!Hw_cost.tier_costs} surcharges.
    Tiers partition the frame index space in declaration order, so a
    frame's physical address ([index * page_size]), cache color
    ([index mod n_colors]) and tier are arithmetic over the index and
    the tier intervals ({!addr}, {!color}, {!tier_of_frame}), exactly as
    when memory was one flat array — a single-DRAM-tier machine is
    structurally and cost-wise identical to the pre-tier model. Every
    per-frame accessor allocates nothing and raises [Invalid_argument]
    for an out-of-range index.

    Who {e owns} a frame (which segment it is migrated into) is the
    kernel's business, not the hardware's; the kernel records an opaque
    integer owner tag here purely so invariant checks ("every frame is in
    exactly one segment") can audit the whole machine. The tag is only
    writable through {!set_owner} — the kernel's single mutation point,
    mirroring the [Epcm_segment.set_frame] discipline — so the per-segment
    resident counters cannot be bypassed. *)

type tier_spec = {
  t_name : string;
  t_bytes : int;  (** Capacity; rounded down to whole pages, at least one. *)
  t_costs : Hw_cost.tier_costs;
}

val dram_tier : bytes:int -> tier_spec
(** Plain DRAM: zero surcharges. [create] wraps the whole machine in one
    of these. *)

val slow_dram_tier : bytes:int -> tier_spec
(** Far memory with {!Hw_cost.slow_dram_tier_costs} surcharges. *)

(** A tier descriptor as built at {!create_tiered} time: its contiguous
    frame interval plus the flattened cost surcharges. *)
type tier = {
  ti_id : int;
  ti_name : string;
  ti_first : int;  (** First frame index of the tier. *)
  ti_frames : int;  (** Frame count. *)
  ti_access_us : float;
  ti_migrate_us : float;
}

type t

val create : ?n_colors:int -> page_size:int -> total_bytes:int -> unit -> t
(** One ["dram"] tier covering all of memory — the flat pre-tier machine.
    [n_colors] defaults to 16. [total_bytes] is rounded down to a whole
    number of pages; at least one page is required. *)

val create_tiered : ?n_colors:int -> page_size:int -> tiers:tier_spec list -> unit -> t
(** Frames laid out tier by tier in list order (tier 0 first). Each tier
    needs at least one page. *)

val page_size : t -> int
val n_frames : t -> int
val n_colors : t -> int

val addr : t -> int -> int
(** Physical byte address of a frame: [index * page_size]. *)

val color : t -> int -> int
(** Cache color of a frame: [index mod n_colors]. *)

val data : t -> int -> Hw_page_data.t
(** Current contents of a frame. *)

val set_data : t -> int -> Hw_page_data.t -> unit

val n_tiers : t -> int

val tier : t -> int -> tier
(** Raises [Invalid_argument] for an out-of-range tier id. *)

val tier_of_frame : t -> int -> int
(** Tier id of a frame, [0 .. n_tiers-1]: the tier whose interval holds
    it, found by walking the tier bounds (O(tiers)). *)

val tier_access_us : t -> int -> float
val tier_migrate_us : t -> int -> float

val tier_bounds : t -> int -> int * int
(** [(first, count)]: the tier's contiguous frame-index interval. *)

val owner : t -> int -> int
(** The kernel's owner tag for a frame; -1 = none. *)

val set_owner : t -> int -> int -> unit
(** Kernel-only mutation point for the owner tag. *)

val frames_of_color : ?tier:int -> t -> int -> int list
(** Frame indices with the given color, ascending, optionally restricted
    to one tier. Frame [i] has color [i mod n_colors], so the answer is an
    arithmetic progression over the (tier's) index interval: O(result),
    no scan and no precomputed index. *)

val find_aligned_run : ?tier:int -> t -> start:int -> run:int -> owned_by:int -> int option
(** First frame of the lowest [run]-aligned window at or after [start]
    (within [tier] when given) whose frames all carry owner tag
    [owned_by] — the physical backing of one superpage. On a mismatch
    the search jumps past the offending frame, so a caller that advances
    [start] monotonically pays O(frames) over a whole streaming pass,
    not per call. *)

val zero_frame : t -> int -> unit
val copy_frame : t -> src:int -> dst:int -> unit

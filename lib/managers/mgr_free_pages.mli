(** Free-page segment: the frame pool every segment manager keeps
    (paper §2.2).

    The segment is kept {e compact}: slots [0, available) hold frames,
    slots above are empty. Allocation takes frames from the top of the
    full region; reclaimed frames are put back there. Compactness means a
    multi-page allocation is a single contiguous [MigratePages] call, which
    is how the default manager's 16 KB append allocation stays one kernel
    operation. *)

type t

type source = dst:Epcm_segment.id -> dst_page:int -> count:int -> int
(** Ask the system page cache manager for frames, migrated into
    [dst_page..] of [dst]; returns how many were granted. *)

val create : Epcm_kernel.t -> name:string -> capacity:int -> t
(** Creates the underlying segment (initially empty — frames arrive from
    the system page cache manager or from reclamation). *)

val segment : t -> Epcm_segment.id
val available : t -> int
(** Frames ready to hand out. *)

val room : t -> int
(** Empty slots (capacity - available). *)

val grant_slot : t -> int option
(** Where the SPCM should migrate the next incoming frame: the first empty
    slot, or [None] when full. After an external party migrates a frame in
    at this slot, call {!note_granted}. *)

val note_granted : t -> int -> unit
(** Record that [n] frames were migrated into the segment at the grant
    position. *)

val refill : t -> source:source -> count:int -> int
(** Ask [source] for at most [min count (room t)] frames at the grant
    slot and note them; returns how many came. A full pool asks for
    none. *)

val take_to :
  t ->
  dst:Epcm_segment.id ->
  dst_page:int ->
  count:int ->
  ?tier:int ->
  ?set_flags:Epcm_flags.t ->
  ?clear_flags:Epcm_flags.t ->
  unit ->
  int
(** Migrate up to [count] frames (one kernel call) from the pool to
    [dst_page ..] of [dst]; returns how many moved (0 when empty).
    [tier] forwards to {!Epcm_kernel.migrate_pages}: a tier-pure pool
    (as {!Mgr_tiered} keeps) asserts every handed-out frame really is of
    its tier. *)

val hand_out :
  t ->
  ?data:Hw_page_data.t ->
  dst:Epcm_segment.id ->
  dst_page:int ->
  count:int ->
  ?tier:int ->
  ?set_flags:Epcm_flags.t ->
  ?clear_flags:Epcm_flags.t ->
  unit ->
  unit
(** {!take_to} that must move all [count] frames: raises
    {!Epcm_kernel.Error}, moving nothing, when the pool holds fewer.
    [data] first becomes the contents of the frame landing at
    [dst_page + count - 1] (the manager "copies the data into the
    previously allocated page frame", Figure 2). *)

val put_from : t -> src:Epcm_segment.id -> src_page:int -> unit
(** Reclaim: migrate the frame at ([src], [src_page]) into the pool.
    Raises {!Epcm_kernel.Error} if the pool is full or the page empty. *)

val put_spill : t -> spill:int -> src:Epcm_segment.id -> src_page:int -> unit
(** {!put_from} that first gives [spill] frames back to the initial
    segment ({!release_to_initial}) when the pool is full. *)

val release_to_initial : t -> count:int -> int
(** Give up to [count] pooled frames back to the kernel's initial segment
    (used when the SPCM claws memory back); returns how many. *)

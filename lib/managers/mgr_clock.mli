(** The second-chance clock segment managers replace pages with (paper
    §2.2), written once for every paging manager: {!Mgr_generic} keeps
    one, {!Mgr_tiered} one per tier.

    The ring holds one entry per page fill, newest first; the hand is
    the suffix still to visit in the current sweep. An entry whose page
    lost its frame — or, in a tier's clock, whose frame left the tier —
    is tombstoned, and the ring compacts once tombstones outnumber live
    entries, so removal is amortised O(1) instead of O(ring). *)

type t

type outcome =
  | Evicted  (** The victim's frame left; counts towards the sweep's target. *)
  | Kept  (** The victim stays (say, its writeback failed); sweep on. *)
  | Stop  (** End the sweep (say, the level below is full). *)

val resident :
  Epcm_kernel.t -> Epcm_segment.id -> int -> (Epcm_segment.page_state * int) option
(** The slot and frame of a page, when its segment is live and it is
    resident: the clock's test for each entry, and how a manager
    re-reads a page that may have moved while it waited. *)

val create : Epcm_kernel.t -> ?tier:int -> unit -> t
(** An empty clock; with [tier], only pages on that tier's frames. *)

val track : t -> Epcm_segment.id -> int -> unit
(** Enter a freshly filled page. *)

val forget : t -> Epcm_segment.id -> unit
(** Drop every entry of a closing segment, from the ring and the hand. *)

val sweep :
  t ->
  count:int ->
  full:('a -> bool) ->
  evict:('a -> Epcm_segment.id -> int -> Epcm_segment.page_state -> int -> outcome) ->
  'a ->
  int
(** Advance the hand until [count] pages were [Evicted], a callback
    stops it, or the hand wrapped twice (a sweep in progress first runs
    to the end of the ring). At each entry the hand advances, then
    [full env] stops the sweep, then a tombstone is skipped. A live
    entry is tombstoned when its page has no frame (or one of another
    tier), skipped when pinned or [io_busy], given its second chance
    (the [referenced] bit cleared) when referenced, and otherwise handed
    to [evict env seg page slot frame]. Returns the pages evicted. The
    callbacks take the manager as [env], so a manager passes top-level
    functions and a sweep builds no closure. *)

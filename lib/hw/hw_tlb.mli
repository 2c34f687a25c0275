(** Translation lookaside buffer model.

    The R3000 TLB has 64 entries; misses are refilled in software by a fast
    kernel handler. We model a direct-mapped TLB (deterministic, close
    enough for the cache-coloring example) with hit/miss accounting, plus a
    small dedicated superpage array (2 MB entries, one per aligned run of
    [super_pages] base pages) probed before the 4 KB slots — the way
    R4000-class MIPS parts pair variable page sizes with the base TLB. The
    superpage probe is guarded by a live-entry counter so a machine that
    never fills a superpage behaves and counts identically to the
    pre-superpage TLB. *)

type t

val create : ?entries:int -> ?super_entries:int -> ?super_pages:int -> unit -> t
(** Defaults: 64 base entries, 16 superpage entries, 512 base pages per
    superpage. Each entry is three ints (space, vpn, frame) held in
    per-field int arrays, so probes and refills allocate nothing. *)

val probe : t -> space:int -> vpn:int -> int
(** The cached frame for the page, or -1 on a miss; updates statistics.
    A live superpage entry covering [vpn] resolves before the 4 KB slot
    (counted in {!super_hits} too) and yields the page's frame within
    its run. *)

val fill : t -> space:int -> vpn:int -> frame:int -> unit
(** Cache a 4 KB translation; [frame] is a frame index, non-negative. *)

val fill_super : t -> space:int -> svpn:int -> frame:int -> unit
(** Fill a superpage entry: [svpn] = vpn / super_pages, [frame] the first
    frame of the aligned run. *)

val invalidate : t -> space:int -> vpn:int -> unit
val invalidate_super : t -> space:int -> svpn:int -> unit
val invalidate_space : t -> space:int -> unit
val flush : t -> unit

val hits : t -> int
val misses : t -> int

val super_hits : t -> int
(** Lookups resolved by a superpage entry (also counted in {!hits}). *)

val hit_rate : t -> float
(** In [0,1]; 0 when no lookups have happened. *)

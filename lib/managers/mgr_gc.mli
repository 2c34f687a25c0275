(** Garbage-collector-aware heap manager.

    Two §1/§4 claims in one manager:

    - Subramanian (Mach external pager, 1991) showed "significant
      performance improvements for a number of ML programs by exploiting
      the fact that garbage pages can be discarded without writeback" —
      but needed kernel changes because an external pager cannot see
      physical-memory availability and suffers redundant zero-fills.
      External page-cache management gives both for free: this manager
      discards pages the collector has declared garbage (dirty or not),
      and reuses its own frames without the security zeroing a
      cross-domain kernel would impose.
    - §1: "a run-time memory management library using garbage collection
      can adapt the frequency of collections to available physical
      memory, if this information is available to it" — {!should_collect}
      implements exactly that policy: collect when the live heap
      approaches the frames the SPCM will let us hold.

    The mutator allocates bump-pointer style; a collection compacts the
    live set to the bottom of the heap and declares the rest garbage. *)

type t

val create :
  Epcm_kernel.t -> ?disk:Hw_disk.t -> source:Mgr_generic.source -> pool_capacity:int -> unit -> t

val create_heap : t -> name:string -> pages:int -> Epcm_segment.id

val declare_garbage : t -> seg:Epcm_segment.id -> page:int -> count:int -> unit
(** The collector knows these pages are dead: they may be reclaimed with
    {e no writeback}, dirty or not. *)

val reclaim_garbage : t -> seg:Epcm_segment.id -> int
(** Drop all declared-garbage resident pages into the pool; returns pages
    reclaimed. No disk traffic, no zero-fill. *)

val evict_conventional : t -> seg:Epcm_segment.id -> page:int -> count:int -> int
(** What a GC-oblivious pager would do to the same pages: write dirty
    ones to swap before reclaiming. Returns pages reclaimed (for the
    comparison bench). *)

val should_collect : t -> live_pages:int -> budget_pages:int -> bool
(** Collection-frequency policy: collect when the live heap exceeds ~75%
    of the frames available to us. *)

val writebacks_avoided : t -> int
(** Dirty garbage pages dropped without a disk write. *)

(** Compressed-cache segment manager.

    §2.1 lists "page compression" among the sophisticated schemes a
    process-level manager can implement without kernel support. This one
    is a 1992-flavoured zswap: on eviction, instead of paying a ~15 ms
    disk write, the page is compressed (~0.5 ms of CPU) into a bounded
    in-memory pool; a later fault decompresses (~0.3 ms) instead of
    reading the disk. When the compressed pool overflows its budget, the
    oldest entries spill to the real backing store.

    The ablation bench compares reclaim-to-disk, reclaim-to-compression
    and discard-and-regenerate on the same workload. *)

type config = {
  compress_us : float;  (** CPU to compress one 4 KB page. *)
  decompress_us : float;
  compression_ratio : float;  (** Compressed size as a fraction of a page. *)
  budget_pages : float;  (** Pool budget in page-equivalents. *)
}

val default_config : config

type t

val create :
  Epcm_kernel.t ->
  ?disk:Hw_disk.t ->
  ?config:config ->
  source:Mgr_generic.source ->
  pool_capacity:int ->
  unit ->
  t

val create_segment : t -> name:string -> pages:int -> Epcm_segment.id

val evict : t -> seg:Epcm_segment.id -> page:int -> unit
(** Compress the page into the pool and reclaim its frame. *)

(** {2 Backend interface}

    The raw compressed store, without the frame movement of {!evict} /
    the fault handler. {!Mgr_tiered} uses these as its coldest tier:
    demotion {!stash}es the page contents, promotion {!fetch}es them
    back. Charges are identical to the {!evict}/fault paths
    ([mgr/compress], [mgr/decompress], disk IO on spill/fill). *)

val stash : t -> seg:Epcm_segment.id -> page:int -> Hw_page_data.t -> unit
(** Compress [data] into the store under ([seg], [page]), spilling the
    oldest entries to disk if the budget overflows. *)

val fetch : t -> seg:Epcm_segment.id -> page:int -> Hw_page_data.t option
(** Decompress-and-remove the entry for ([seg], [page]); falls back to
    the disk spill area; [None] if neither level holds the page. *)

val has : t -> seg:Epcm_segment.id -> page:int -> bool
(** Whether {!fetch} would return [Some] (store or spill area). *)

val resident : t -> seg:Epcm_segment.id -> int
val pool_page_equivalents : t -> float

(** {2 Statistics} *)

val compressions : t -> int
val decompressions : t -> int
val spills : t -> int  (** Compressed entries pushed out to disk. *)

val disk_fills : t -> int  (** Faults that had to go to the disk after all. *)

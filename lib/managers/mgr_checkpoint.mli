(** Incremental copy-on-write checkpointing.

    §3.1 argues that cheap user-level fault handling enables the
    Appel–Li-style algorithms — concurrent garbage collection and
    {e concurrent checkpointing}. This manager implements the latter on
    the external page-cache primitives:

    - [begin_checkpoint] write-protects every resident page of the
      managed segment (one [ModifyPageFlags] sweep) and opens a
      checkpoint generation;
    - the mutator keeps running; its first write to any page takes a
      107 µs-class protection fault, at which point the manager saves the
      {e old} contents into the checkpoint store and unprotects the page —
      copies happen only for pages actually modified;
    - [read_checkpoint] reconstructs the page image as of the snapshot
      instant at any time (saved copy if the mutator dirtied it, current
      contents otherwise);
    - [end_checkpoint] drops protections that never faulted.

    Under a conventional kernel the only tool is full stop-and-copy; the
    measured win is in the checkpoint example and ablation bench. *)

type t

type generation = int

val create :
  Epcm_kernel.t ->
  ?backing:Mgr_backing.t ->
  source:Mgr_generic.source ->
  pool_capacity:int ->
  unit ->
  t
(** [backing], when given, makes checkpoints durable: [end_checkpoint]
    writes every image of the closing generation to it (file
    [seg * 4096 + generation], block = page). A write that exhausts its
    retry budget costs that image its durability only — it stays readable
    in memory, the loss is counted in {!durable_failures}, and the
    checkpoint still closes. Without [backing] the store is memory-only, as before. *)

val create_segment : t -> name:string -> pages:int -> Epcm_segment.id

val begin_checkpoint : t -> seg:Epcm_segment.id -> generation
(** Raises [Invalid_argument] if a checkpoint is already open on this
    segment (one at a time per segment). *)

val end_checkpoint : t -> seg:Epcm_segment.id -> unit

val read_checkpoint :
  t -> seg:Epcm_segment.id -> generation:generation -> page:int -> Hw_page_data.t
(** The page's contents as of [begin_checkpoint] of that generation.
    Raises [Not_found] for generations never taken or pages that were
    not resident at snapshot time. *)

val pages_preserved : t -> int
(** Old images copied because the mutator wrote during a checkpoint. *)

val checkpoint_faults : t -> int

val durable_writes : t -> int
(** Generation images successfully persisted to the backing store. *)

val durable_failures : t -> int
(** Images whose persistence write exhausted its retry budget (still
    readable in memory; durability lost and counted). *)

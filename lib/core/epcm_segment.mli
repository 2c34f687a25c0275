(** Segments and bound regions (paper §2.1, Figure 1).

    A segment is a variable-size range of zero or more pages. Program
    address spaces are themselves segments, composed by {e binding} regions
    of other segments (code, data, stack) into them; a reference to an
    address covered by a bound region is effectively a reference to the
    corresponding page of the bound segment. A binding may be copy-on-write,
    in which case pages are effectively bound to the source until modified.

    This module is the passive data structure; all mutation with hardware
    side effects (mappings, migration) goes through {!Epcm_kernel}.

    Scale notes: bound regions are kept in an array sorted by [at] (regions
    are disjoint), so {!binding_covering} — on every fault-path segment walk
    — is a binary search, and the segment carries an incremental resident
    counter so {!resident_pages} (and the kernel's whole-machine frame
    audit) is O(1) per segment rather than a fold over the page array. *)

type id = int

type page_state = {
  mutable frame : int option;
      (** Physical frame mapped here, if any. Mutate only through
          {!set_frame}, which maintains the resident counter. *)
  mutable flags : Epcm_flags.t;
}

type binding = {
  at : int;  (** First page of the bound region in the composing segment. *)
  len : int;  (** Pages. *)
  target : id;  (** Bound segment. *)
  target_page : int;  (** First corresponding page in [target]. *)
  cow : bool;
}

type t = {
  sid : id;
  sname : string;
  seg_page_size : int;
  mutable pages : page_state array;
  mutable manager : int option;  (** Manager id, see {!Epcm_manager}. *)
  mutable bindings : binding array;
      (** Regions bound into this segment, sorted by [at], disjoint.
          Mutate only through {!add_binding}. *)
  mutable alive : bool;
  mutable resident : int;
      (** Pages with a frame mapped; maintained by {!set_frame}. *)
  tier_of : int -> int;  (** Frame index -> memory tier id. *)
  resident_by_tier : int array;
      (** Resident pages per memory tier; maintained by {!set_frame}. *)
  mutable sp_enabled : bool;
      (** Manager opted this segment into superpage (2 MB) mappings —
          toggle only through [Epcm_kernel.set_superpages]. *)
  sp_regions : (int, int) Hashtbl.t;
      (** Promoted superpage regions: region index (page /
          super_pages) -> first frame of the aligned physical run.
          Mutated only by the kernel's promote/demote paths; residency
          bookkeeping stays at 4 KB granularity in [pages], so the
          frame-conservation audits are unaffected. *)
}

val make :
  ?n_tiers:int ->
  ?tier_of:(int -> int) ->
  sid:id ->
  name:string ->
  page_size:int ->
  pages:int ->
  unit ->
  t
(** [n_tiers] (default 1) sizes the per-tier resident counters; [tier_of]
    (default [fun _ -> 0]) maps a frame index to its tier — the kernel
    passes {!Hw_phys_mem.tier_of_frame} so the counters track the
    machine's real tier layout. *)

val make_identity :
  ?n_tiers:int ->
  ?tier_of:(int -> int) ->
  sid:id ->
  name:string ->
  page_size:int ->
  pages:int ->
  unit ->
  t
(** Like {!make}, but page i holds frame i and the resident counters
    (flat and per tier, through [tier_of]) count every page, all set in
    one pass: the kernel's initial segment at boot. *)

val length : t -> int
val in_range : t -> int -> bool
val page : t -> int -> page_state
(** Raises [Invalid_argument] when out of range. *)

val set_frame : t -> int -> int option -> unit
(** Set or clear the frame of a page, keeping the resident counter exact.
    Raises [Invalid_argument] when out of range. *)

val binding_covering : t -> int -> binding option
(** The binding whose region covers the given page, if any. O(log n). *)

val bindings_overlap : t -> at:int -> len:int -> bool
(** Does [at, at+len) intersect any bound region? O(log n). *)

val add_binding : t -> binding -> unit
(** Insert a region, keeping the array sorted by [at]. The caller
    (the kernel) must have rejected overlaps first. *)

val bindings_list : t -> binding list
(** All bound regions, ascending by [at]. *)

val resident_pages : t -> int
(** Pages with a frame mapped — the incremental counter, O(1). *)

val resident_pages_scan : t -> int
(** The same count by scanning the page array — O(pages). Kept as the
    reference the equivalence tests pin {!resident_pages} against. *)

val resident_pages_by_tier : t -> int array
(** Resident pages per memory tier — the incremental counters, O(tiers).
    Sums to {!resident_pages}. *)

val resident_pages_by_tier_scan : t -> int array
(** The per-tier counts by scanning the page array — O(pages), the
    reference {!resident_pages_by_tier} is pinned against. *)

val superpage_regions : t -> (int * int) list
(** Promoted superpage regions as (region index, base frame) pairs,
    ascending — a sorted view of [sp_regions] for tests and reports. *)

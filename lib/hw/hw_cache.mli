(** Physically-indexed direct-mapped cache model.

    Used standalone by the page-coloring example and, since the cache
    wiring, attachable to a whole machine ({!Hw_machine.create} [?cache]):
    with physical indexing, which cache set a datum lands in depends on
    the {e physical} page the kernel happened to allocate, so two hot
    virtual pages can silently collide. Page coloring (paper §1, citing
    Bray et al.) gives the application control over this by letting it
    pick frame colors. *)

type t

val create : ?line_bytes:int -> size_bytes:int -> unit -> t
(** Direct-mapped; default 64-byte lines. *)

val sets : t -> int

val access : t -> phys_addr:int -> bool
(** One read at a physical address: hit or miss is recorded and the
    resident line updated; returns [true] on a hit. *)

val touch_page : t -> phys_addr:int -> page_bytes:int -> unit
(** Access every line of a page once (a sequential sweep). *)

val accesses : t -> int
(** Total accesses recorded. [accesses = hits + misses] always — the
    conservation identity the chaos suite audits. *)

val hits : t -> int
val misses : t -> int
val miss_rate : t -> float
val reset_stats : t -> unit
(** Clears the counters only; resident lines stay, so a pre-warmed cache
    keeps hitting. *)

val color_of : t -> phys_addr:int -> page_bytes:int -> int
(** Which page color this address falls in: the cache-set group a page
    occupies. [sets * line_bytes / page_bytes] distinct colors. *)

val n_colors : t -> page_bytes:int -> int
(** How many distinct page colors this cache induces:
    [sets * line_bytes / page_bytes] (at least 1 — a page larger than the
    cache leaves a single color). This is the [n_colors] a machine's
    physical memory should be built with for coloring to be faithful to
    the cache geometry. *)

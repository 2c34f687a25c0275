(** The V++ global mapping hash table.

    The paper: "V++ augments the segment and bound region data structures
    with a global 64K entry direct mapped hash table with a 32 entry
    overflow area." This table is a {e cache} of virtual-to-physical
    translations; a miss falls back to walking the kernel's segment
    structures (which the kernel charges for separately). Keys are
    (address-space id, virtual page number); address-space ids are
    non-negative.

    Entries carry a mapping {!size}: the classic 4 KB [Base] entries live
    in the direct-mapped slots + overflow area, while 2 MB [Super] entries
    (one per aligned run of [super_pages] base pages) live in a dedicated
    direct-mapped superpage area keyed by (space, vpn / super_pages) and
    are probed {e before} the 4 KB slot. The probe is guarded by a live
    superpage counter, so a machine that never installs a superpage takes
    identical branches and accumulates identical statistics to the
    pre-superpage table.

    Storage: every slot is one word holding its entry or the shared
    {!vacant} entry, never an option. The direct-mapped slots are kept in
    chunks of 32, each allocated on the first insert that reaches it, so
    a table costs one top-array word per 32 slots, each reached chunk one
    word per slot plus its header, and each live entry its 6-word
    record. *)

type prot = { readable : bool; writable : bool }

type size = Base | Super

type entry = { space : int; vpn : int; frame : int; prot : prot; size : size }
(** For [Super] entries [vpn] is the superpage number (vpn / super_pages)
    and [frame] the first frame of the aligned physical run. *)

type t

val create :
  ?slots:int -> ?overflow:int -> ?super_slots:int -> ?super_pages:int -> unit -> t
(** Defaults: 65536 direct-mapped slots, 32 overflow entries, 1024
    superpage slots, 512 base pages per superpage (2 MB of 4 KB pages). *)

val insert : t -> space:int -> vpn:int -> frame:int -> prot:prot -> unit
(** Insert a 4 KB entry. A colliding resident entry is pushed to the
    overflow area; when the overflow area is full its oldest entry is
    discarded (it can be rebuilt from segment structures on demand). *)

val insert_super : t -> space:int -> svpn:int -> frame:int -> prot:prot -> unit
(** Install a 2 MB entry mapping superpage [svpn] (= vpn / super_pages) to
    the aligned run starting at [frame]. A colliding superpage entry is
    displaced (rebuilt from the kernel's promoted-region table on
    demand). *)

val remove_super : t -> space:int -> svpn:int -> unit

val vacant : entry
(** The entry every empty slot holds, and what {!find} returns on a
    miss; compare with [==]. Its key is no address space's and its
    protection grants neither read nor write, so a caller that checks the
    access it needs treats a miss like an insufficient mapping. *)

val find : t -> space:int -> vpn:int -> entry
(** The entry translating the page, or {!vacant}; updates hit/miss
    statistics. A live superpage entry covering [vpn] resolves before the
    4 KB slot; its [size] says which mapping resolved the translation
    (the kernel charges the matching TLB refill cost). A 4 KB hit returns
    the stored entry itself, without allocating; a superpage hit returns
    a fresh [Super] entry whose [vpn] and [frame] are the looked-up page
    and its translated frame. *)

val remove : t -> space:int -> vpn:int -> unit
(** Remove the 4 KB entry for the page (superpage entries are removed
    only via {!remove_super} / {!remove_space}). *)

val remove_space : t -> space:int -> unit
(** Drop all translations of one address space (space teardown) — both
    sizes. *)

val capacity : t -> int
(** Direct-mapped slot count ([slots] at {!create}). {!Hw_machine.create}
    sizes this to the physical frame count above the 64K default so warm
    scans of a large machine stay hash hits. *)

val hits : t -> int
val misses : t -> int
val collisions : t -> int
(** Number of insertions that displaced a resident entry. *)

val super_hits : t -> int
(** Lookups resolved by a superpage entry (also counted in {!hits}). *)

val super_collisions : t -> int
(** Superpage insertions that displaced a different superpage entry. *)

val super_resident : t -> int
(** Currently cached superpage translations. *)

val resident : t -> int
(** Currently cached 4 KB translations (slots + overflow). *)

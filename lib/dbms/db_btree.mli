(** B+-tree index layout over a segment.

    The Table 4 indices are not just "256 pages of something": a join or
    DebitCredit lookup walks root → internal → leaf, so the pages a
    transaction touches (and therefore faults on, when the index was
    evicted) follow from the tree shape. This module computes a
    level-order layout for a tree of a given page budget and answers
    lookups with the page path a real traversal would touch.

    With a 4 KB page holding 128 separators, a 1 MB (256-page) index is
    three levels deep — which is why a transaction touches ~3 index pages
    (§3.3 simulation parameters). *)

type t

val create : ?fanout:int -> pages:int -> unit -> t
(** Lay out the largest complete tree fitting in [pages] pages (at least
    one leaf). Default fanout 128 separators per page. *)

val fanout : t -> int
val pages : t -> int
(** Pages actually used (≤ the budget). *)

val depth : t -> int
(** Levels, including the leaf level. *)

val keys : t -> int
(** Number of keys the leaves index. *)

val root_page : t -> int

val lookup_path : t -> key:int -> int list
(** Pages touched by a lookup, root first, leaf last. [key] is taken
    modulo {!keys}. Length = {!depth}. *)

val leaf_of_key : t -> key:int -> int

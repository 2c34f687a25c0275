(** Page flags.

    [MigratePages] and [ModifyPageFlags] let a manager set and clear these
    per-page flags — including [dirty], which conventional [mprotect]-style
    interfaces cannot touch (paper §2.1). A flag set is a small int bitset,
    so set/clear masks compose with [union]. *)

type t = private int

val empty : t

(* individual flags *)

val dirty : t
(** Contents differ from backing store. Travels with a migrating frame. *)

val referenced : t
(** Touched since last cleared; input to clock algorithms. *)

val no_access : t
(** Any reference faults (used by the default manager to sample use). *)

val read_only : t
(** Writes fault. *)

val pinned : t
(** Manager convention: never select for replacement. The kernel stores it
    but attaches no semantics — policy lives outside the kernel. *)

val io_busy : t
(** Manager convention: transfer in progress. *)

val union : t -> t -> t
val diff : t -> t -> t
val mem : t -> t -> bool
(** [mem flags f] — is every flag of [f] set in [flags]? *)

val intersects : t -> t -> bool
val of_list : t list -> t
val equal : t -> t -> bool
val to_string : t -> string

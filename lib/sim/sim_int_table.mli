(** Hash table keyed by one [int], whose hash and equality are int
    operations: a lookup makes no C call and allocates nothing, where the
    polymorphic [Hashtbl] hashes and compares every key in C. Nor does an
    insertion or a removal allocate, except when the table doubles.

    Open addressing over an [int] array of keys and an array of values,
    probed linearly from a multiplicative hash; a removal shifts the rest
    of its probe run back, so no tombstones build up. A missing key reads
    as the table's [absent] value. [min_int] marks a free slot and cannot
    be bound: it always reads as [absent]. *)

type 'a t

val create : absent:'a -> int -> 'a t
(** [create ~absent n] holds [n] keys before it first doubles. *)

val find : 'a t -> int -> 'a
(** The value bound to the key, or [absent]. *)

val replace : 'a t -> int -> 'a -> unit
(** Binds the key, replacing any earlier binding. Raises
    [Invalid_argument] for [min_int]. *)

val remove : 'a t -> int -> unit
(** Drops the key's binding, if any. *)

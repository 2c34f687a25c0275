(** Binary min-heap keyed by (time, sequence number).

    The sequence number makes event ordering total and FIFO-stable: two
    events scheduled for the same instant fire in scheduling order, which
    keeps simulations deterministic.

    Entries are stored as structure-of-arrays — an unboxed [Float.Array]
    of times, an [int array] of sequence numbers and an item array — so a
    push or take allocates nothing beyond occasional growth. The record
    is exposed [private] so a hot caller (the engine) can read the minimum
    time in place: [times.(0)] when [len > 0]. Through a function call
    that float would be boxed. *)

type 'a t = private {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable items : 'a array;
  mutable len : int;  (** live entries occupy indices [0 .. len - 1] *)
}

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val min_time : 'a t -> float
(** Time of the minimum entry. Raises [Invalid_argument] when empty. *)

val due : 'a t -> at:float -> bool
(** [due h ~at]: some entry is scheduled at or before [at]. *)

val take : 'a t -> 'a
(** Remove the minimum entry and return its item. Raises
    [Invalid_argument] when empty. *)

val clear : 'a t -> unit

(** Hierarchical lock manager (granular locking à la Gray): database →
    relation → page, with intention modes.

    Compatibility:
    {v
            IS   IX   S    X
       IS   ok   ok   ok   -
       IX   ok   ok   -    -
       S    ok   -    ok   -
       X    -    -    -    -
    v}

    Waiters are served FIFO. Callers avoid deadlock by acquiring resources
    in a fixed global order (database, then relations by id, then pages by
    (relation, page)) — which the transaction code in {!Db_engine} does.

    Each resource is keyed by one int whose order is that global order:
    the kind in bits 60–61 (database, relation, page), the relation in
    bits 32–59 and the page in bits 0–31. Relation ids must be below
    2{^28} and page numbers below 2{^32}, neither negative; every entry
    point refuses others with [Invalid_argument "Db_locks: Page (r, p)
    out of range"] (or [Relation r]). The lock and transaction tables hash and
    compare these ints and transaction ids as ints
    ({!Sim_int_table}), never through the polymorphic [Hashtbl], and a
    transaction's held list links its grants themselves, so
    {!release_all} looks the transaction up once and unlinks each grant
    in place. An uncontended acquire allocates its 6-word grant and
    nothing else.

    Blocking acquisition must run inside a simulation process. *)

type mode = IS | IX | S | X

type resource =
  | Database
  | Relation of int
  | Page of int * int  (** (relation, page) *)

type txn = int

type t

val create : unit -> t

val acquire : t -> txn:txn -> resource -> mode -> unit
(** Blocks until granted. Re-acquiring a mode already held (or implied:
    X ⊇ S ⊇ IS, X ⊇ IX ⊇ IS) is a no-op. Upgrades are not supported and
    raise [Invalid_argument "Db_locks.acquire: upgrade A -> B unsupported"]. *)

val try_acquire : t -> txn:txn -> resource -> mode -> bool

val acquire_timeout : t -> txn:txn -> resource -> mode -> timeout_us:float -> bool
(** Like {!acquire}, but gives up after [timeout_us] of simulated time in
    the wait queue and returns [false] (the two-phase-commit
    abort-on-lock-timeout path). Returns [true] as soon as the lock is
    granted. A timed-out waiter is cancelled in place — it never holds
    the lock and FIFO order among the remaining waiters is preserved.
    An upgrade raises [Invalid_argument] as in {!acquire}, naming
    [Db_locks.acquire_timeout]. Must run inside a simulation process. *)

val release_all : t -> txn:txn -> unit
(** Release everything the transaction holds, waking eligible waiters.
    Resources are visited in the global acquisition order (database,
    relations by id, pages by (relation, page)), so the wake-ups — and
    the events they schedule — come in a fixed order. *)

val held : t -> txn:txn -> (resource * mode) list
val waiting : t -> int
(** Transactions currently blocked. *)

val total_blocked : t -> int
(** Cumulative count of acquisitions that had to wait. *)

val timeouts : t -> int
(** Cumulative count of {!acquire_timeout} waits that expired. *)

val compatible : mode -> mode -> bool
val covers : held:mode -> wanted:mode -> bool
val pp_mode : Format.formatter -> mode -> unit

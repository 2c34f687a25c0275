(** Write-ahead-log coordination between the DBMS and its segment manager.

    §2.1: with external page-cache management a manager "can coordinate
    writeback with the application, as is required for clean database
    transaction commit". The rule is the classic WAL invariant: a dirty
    data page must not reach disk before the log records describing its
    changes. A kernel-resident pager cannot know this ordering; an
    application segment manager enforces it in its eviction hook.

    The log buffers records in memory and forces them with group commit:
    at most one log force is in flight per log, committers that arrive
    while it is in flight park until it lands, and the next force carries
    every record appended by then in one disk transfer. {!eviction_hook}
    wraps a {!Mgr_generic.hooks}' eviction decision so any writeback of a
    page with an unflushed LSN forces the log out first. *)

type t

type lsn = int
(** Log sequence numbers, monotonically increasing from 1. *)

exception Flush_failed of { lsn : lsn; attempts : int }
(** The log could not be forced to disk within the retry budget. [flushed]
    has not advanced: the durable prefix is intact and recovery replays
    from it (a torn write never acknowledges lost records). *)

val create :
  Hw_disk.t ->
  ?record_bytes:int ->
  ?retry:Mgr_backing.retry ->
  ?group_commit:bool ->
  unit ->
  t
(** [record_bytes] (default 256) sizes the disk transfer of a flush:
    one record's worth per record it carries.
    [retry] bounds attempts per flush (default {!Mgr_backing.default_retry}).

    [group_commit] (default [true]) keeps one force in flight and parks
    later committers behind it. [false] is per-commit forcing, the
    reference group commit is measured against: every committer issues
    its own transfer at once, sized from the durable prefix it sees, so
    concurrent committers queue one disk write each. With one committer
    at a time the two modes are identical. *)

val append : t -> lsn
(** Buffer one log record, returning its LSN. No I/O. *)

val note_page_write : t -> seg:Epcm_segment.id -> page:int -> lsn:lsn -> unit
(** Record that the page's latest modification is described by [lsn]. The
    log keys the page by one int, [(seg lsl 32) lor page], in a
    {!Sim_int_table}: segment ids must be below 2{^30} and pages below
    2{^32}, neither negative, others refused with [Invalid_argument].
    Rebinding a page already noted allocates nothing. *)

val flush_to : t -> lsn:lsn -> unit
(** Force the log to disk up to and including [lsn]; returns once
    [lsn <= flushed t] (at once if it already holds). Under group commit:
    with no force in flight the caller leads one, writing every record
    appended so far in one transfer; with one in flight it parks, and is
    woken once a force has made its record durable, or, at the head of
    the queue when a force ends without covering it, to lead the next
    one. A torn force acknowledges nobody: [flushed] stays put and each
    parked committer in turn leads a force with its own retry budget.
    Must run inside a simulation process.

    @raise Flush_failed when the retry budget of the force this caller
    leads is exhausted; [lsn] names the caller's record. *)

val commit : t -> lsn:lsn -> unit
(** Transaction commit: force the log through [lsn].

    @raise Flush_failed — the transaction is {e not} durable. *)

val flushed : t -> lsn
val appended : t -> lsn
val flushes : t -> int
(** Successful log forces (one disk transfer each, retries aside). *)

val flush_retries : t -> int
(** Failed transfer attempts that were retried. *)

val flush_failures : t -> int
(** Flushes abandoned after exhausting the retry budget. *)

val group_parks : t -> int
(** Times a committer parked behind an in-flight force (0 under
    per-commit forcing, and whenever commits never overlap). *)

val wal_violations : t -> int
(** Writebacks that would have hit disk before their log records — always
    0 when the eviction hook is in place; counted for tests that bypass
    it. *)

val note_data_writeback : t -> seg:Epcm_segment.id -> page:int -> unit
(** Tell the log a data page is being written back (used by the eviction
    hook, and by tests to detect violations). *)

val eviction_hook :
  t ->
  inner:(seg:Epcm_segment.id -> page:int -> dirty:bool -> [ `Writeback | `Discard ]) ->
  seg:Epcm_segment.id ->
  page:int ->
  dirty:bool ->
  [ `Writeback | `Discard ]
(** Wrap an eviction decision with the WAL rule: if the inner policy says
    [`Writeback] and the page has an unflushed LSN, flush the log first.
    If even the retried flush fails, the hook raises
    {!Mgr_backing.Backing_failed} — the manager's vocabulary for "skip
    this page" — so the dirty data page stays resident rather than
    reaching disk ahead of its log records. *)

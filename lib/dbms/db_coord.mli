(** Two-phase-commit coordinator for cross-shard transactions.

    The sharded engine ({!Db_shard}) runs a configurable fraction of its
    DebitCredit transactions against two shards. Atomicity across them is
    the classic presumed-abort 2PC (see the distributed-transaction
    protocol notes cited in the roadmap): the coordinator collects
    prepare votes from every participant, makes the outcome durable in
    its own write-ahead log, then distributes the decision.

    Participants are closures, so the coordinator is transport-agnostic:
    the shard engine wires prepares to real lock acquisition
    ({!Db_locks.acquire_timeout} — a timeout is a [Vote_abort]), WAL
    prepare records and {!Mgr_dsm} page reads, and gives the coordinator
    a [net] callback that charges interconnect latency per protocol
    message.

    The decision function itself is pure and exported separately
    ({!decide}) so the qcheck differential model in [test_shard.ml] can
    pin the effectful protocol against it. *)

type vote = Prepared | Vote_abort
type outcome = Committed | Aborted

type participant = {
  p_name : string;
  p_prepare : unit -> vote;
      (** Phase 1: do the work, write and force a prepare record, vote.
          A participant that votes [Vote_abort] must leave itself ready
          for [p_abort] (it will still be told the outcome). *)
  p_commit : unit -> unit;  (** Phase 2, commit decision. *)
  p_abort : unit -> unit;  (** Phase 2, abort decision. *)
}

type t

val create : wal:Db_wal.t -> ?net:(messages:int -> unit) -> unit -> t
(** [wal] holds the coordinator's commit records; forcing one is the
    commit point. [net] (default: nothing) is called once per protocol
    message batch with the message count. *)

val decide : vote list -> outcome
(** The pure commit rule: [Committed] iff every vote is [Prepared] (and
    there is at least one participant). *)

val run : t -> txn:int -> participant list -> outcome
(** Execute one two-phase commit inside a simulation process:
    prepare-request and vote messages per participant, the coordinator's
    durable commit record on a unanimous [Prepared] (a
    {!Db_wal.Flush_failed} downgrades the outcome to [Aborted] — the
    commit point was never reached), then decision and acknowledgement
    messages while each participant's [p_commit]/[p_abort] runs. Four
    messages per participant. *)

val recover : t -> txn:int -> outcome
(** Presumed abort: [Committed] iff the transaction's commit record is
    on the durable prefix of the coordinator log ([lsn <= flushed]);
    everything else — no record, or a record that never reached disk —
    recovers as [Aborted]. Consistent with what {!run} told the
    participants, whatever the interleaving of disk faults. Commit
    records are kept by transaction id in a {!Sim_int_table}, so
    [min_int] is not a transaction id. *)

(** {2 Counters} *)

val committed : t -> int
val aborted : t -> int
val prepares : t -> int  (** Prepare requests sent (participants asked). *)

val messages : t -> int
(** Total protocol messages (prepare requests + votes + decisions +
    acks). *)

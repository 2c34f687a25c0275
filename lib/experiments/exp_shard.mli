(** Sharded-DBMS throughput record (`vpp_repro shard`,
    [BENCH_shard.json], schema [vpp-shard/2]).

    Runs the same total transaction count through {!Db_shard} at
    increasing shard counts — 1 and 4 in quick mode, 1/4/8 in full —
    fanning the shards of each leg over OCaml 5 domains with
    {!Exp_par.map} (each shard is a self-contained deterministic
    machine, so the joined record is byte-identical to a sequential
    run), then re-runs the 4-shard leg and pins the replay identical.
    A group-commit sweep then runs one shard at several worker counts,
    each with group commit and with per-commit forcing
    ({!Db_wal.create}'s [~group_commit:false]).

    Embedded checks gate the exit status of `vpp_repro shard` and the
    [@shard-smoke] CI alias: aggregate TPS strictly increasing with
    shard count (the 4-shard leg must beat the single shard on the same
    total work), bounded abort rate, per-shard frame conservation,
    exact commit/abort accounting, the single-shard zero-delta (no 2PC
    messages, no DSM transfers), seed-replay identity, and from the
    sweep: group commit forcing the log less than once per commit at
    the default worker count, and less per commit the more workers
    there are, beating per-commit forcing on TPS wherever commits
    overlap, per-commit forcing forcing exactly once per commit, and
    the two identical with a single worker.

    Deterministic fields reproduce exactly across hosts; only the
    [wall_s] fields vary. *)

val schema_version : string
(** ["vpp-shard/2"]. Bump when the record layout changes. *)

type leg = {
  g_shards : int;
  g_txns : int;  (** Transactions executed (= commits + aborts). *)
  g_commits : int;
  g_aborts : int;
  g_abort_rate : float;
  g_local : int;
  g_cross : int;  (** Two-shard transactions run through 2PC. *)
  g_msgs : int;  (** 2PC protocol messages, summed over shards. *)
  g_prepares : int;
  g_transfers : int;  (** DSM page copies shipped. *)
  g_timeouts : int;  (** Lock waits that expired into abort votes. *)
  g_tps : float;
      (** Aggregate: total transactions over the {e slowest} shard's
          simulated seconds. *)
  g_p50_ms : float;  (** Worst shard's median latency. *)
  g_p99_ms : float;  (** Worst shard's p99 latency. *)
  g_sim_s : float;  (** Slowest shard's simulated seconds. *)
  g_flushes : int;  (** Forces of the shards' own logs, summed. *)
  g_conserved : bool;  (** Frame audit held on every shard machine. *)
  g_wall_s : float;
  g_detail : Db_shard.result list;  (** Per-shard rows, in shard order. *)
}

(** One single-shard configuration of the group-commit sweep. *)
type sweep_row = {
  c_workers : int;
  c_group : bool;  (** Group commit, or per-commit forcing. *)
  c_txns : int;
  c_flushes : int;  (** Log forces. *)
  c_parks : int;  (** Committers parked behind an in-flight force. *)
  c_tps : float;
  c_commit_p50_ms : float;
  c_commit_p99_ms : float;
      (** Commit latency, parking included: the ["wal.flush"] histogram
          of the configuration's profiled machine (log buckets, ~19%
          resolution). *)
  c_txn_p99_ms : float;
}

type result = {
  mode : string;  (** ["full"] or ["quick"]. *)
  jobs : int;
  total_txns : int;
  cross_fraction : float;
  legs : leg list;  (** Ascending shard count. *)
  sweep_txns : int;  (** Transactions per sweep configuration. *)
  sweep : sweep_row list;
      (** Ascending worker count, group commit first at each. *)
  replay_identical : bool;
      (** The re-run 4-shard leg matched field for field (wall
          excluded). *)
  checks : Exp_report.check list;
}

val run : ?quick:bool -> ?jobs:int -> unit -> result
(** [quick] (CI smoke) drops the 8-shard leg and shrinks the
    transaction count; [jobs] (default 1) fans each leg's shards over
    that many domains — deterministic fields are byte-identical to a
    sequential run. *)

val render : result -> string
val to_json : result -> Sim_json.t

val render_json : result -> string
(** [to_json] printed stably (two-space indent, trailing newline). *)

val validate_json : Sim_json.t -> (unit, string) Stdlib.result
(** Structural check used by [@shard-smoke] and `vpp_repro validate`:
    version tag, at least two legs with exact commit/abort accounting,
    conservation and bounded abort rate, the single-shard leg free of
    2PC/DSM work, multi-shard legs exchanging messages, strictly
    increasing aggregate TPS, a group-commit sweep in which every group
    row with more than one worker beats its per-commit row, forces per
    commit fall as workers are added and stay below one at the default
    worker count, every per-commit row forces once per commit and the
    one-worker rows agree, replay identity, and every embedded check
    passing. *)

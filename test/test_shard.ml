(* Tests for the sharded transaction engine: the two-phase-commit
   coordinator (pure decision rule and effectful protocol), lock waits
   with deadlines, multi-instance manager coexistence, and the
   Db_shard/Exp_shard determinism and zero-delta invariants. *)

module L = Db_locks
module C = Db_coord
module Engine = Sim_engine
module Chaos = Sim_chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* 2PC decision rule: qcheck differential vs the obvious reference     *)
(* ------------------------------------------------------------------ *)

(* The reference spells the rule out the long way: an empty ballot or
   any abort vote aborts; only a unanimous Prepared ballot commits. *)
let ref_decide votes =
  match votes with
  | [] -> C.Aborted
  | _ when List.exists (fun v -> v = C.Vote_abort) votes -> C.Aborted
  | _ -> C.Committed

let prop_decide_differential =
  let vote_gen = QCheck.map (fun b -> if b then C.Prepared else C.Vote_abort) QCheck.bool in
  QCheck.Test.make ~name:"decide = reference on random ballots" ~count:500
    QCheck.(list_of_size Gen.(0 -- 8) vote_gen)
    (fun votes -> C.decide votes = ref_decide votes)

(* ------------------------------------------------------------------ *)
(* The effectful protocol                                              *)
(* ------------------------------------------------------------------ *)

(* A coordinator on its own machine-less engine: Db_wal only needs a
   disk, and charges no-op outside a Hw_machine simulation. *)
let with_coord f =
  let engine = Engine.create () in
  let disk = Hw_disk.create engine () in
  let wal = Db_wal.create disk () in
  let coord = C.create ~wal () in
  Engine.spawn engine (fun () -> f coord);
  Engine.run engine;
  check_int "no leaked processes" 0 (Engine.live_processes engine);
  (coord, wal, disk, engine)

type probe = { mutable prepared : int; mutable committed : int; mutable aborted : int }

let participant ?(vote = C.Prepared) probe =
  {
    C.p_name = "probe";
    p_prepare =
      (fun () ->
        probe.prepared <- probe.prepared + 1;
        vote);
    p_commit = (fun () -> probe.committed <- probe.committed + 1);
    p_abort = (fun () -> probe.aborted <- probe.aborted + 1);
  }

let test_2pc_unanimous_commits () =
  let a = { prepared = 0; committed = 0; aborted = 0 } in
  let b = { prepared = 0; committed = 0; aborted = 0 } in
  let coord, wal, _, _ =
    with_coord (fun coord ->
        let outcome = C.run coord ~txn:7 [ participant a; participant b ] in
        check_bool "unanimous ballot commits" true (outcome = C.Committed))
  in
  check_int "both prepared" 2 (a.prepared + b.prepared);
  check_int "a committed once" 1 a.committed;
  check_int "b committed once" 1 b.committed;
  check_int "nobody aborted" 0 (a.aborted + b.aborted);
  (* Four messages per participant: prepare out, vote back, decision
     out, acknowledgement back. *)
  check_int "4 messages per participant" 8 (C.messages coord);
  check_int "prepares counted" 2 (C.prepares coord);
  check_int "committed counted" 1 (C.committed coord);
  (* The commit point is durable: the coordinator's commit record is on
     the flushed prefix, so recovery agrees. *)
  check_bool "commit record flushed" true (Db_wal.flushed wal >= 1);
  check_bool "recover agrees: committed" true (C.recover coord ~txn:7 = C.Committed);
  check_bool "recover presumes abort for unknown txns" true (C.recover coord ~txn:99 = C.Aborted)

let test_2pc_any_abort_aborts () =
  let a = { prepared = 0; committed = 0; aborted = 0 } in
  let b = { prepared = 0; committed = 0; aborted = 0 } in
  let coord, wal, _, _ =
    with_coord (fun coord ->
        let outcome = C.run coord ~txn:3 [ participant a; participant ~vote:C.Vote_abort b ] in
        check_bool "one abort vote aborts globally" true (outcome = C.Aborted))
  in
  check_int "abort delivered to every participant" 2 (a.aborted + b.aborted);
  check_int "nobody committed" 0 (a.committed + b.committed);
  check_int "aborted counted" 1 (C.aborted coord);
  (* No commit record was ever appended, so nothing reached the log. *)
  check_int "no commit record written" 0 (Db_wal.appended wal);
  check_bool "recover agrees: aborted" true (C.recover coord ~txn:3 = C.Aborted)

let test_2pc_empty_ballot_aborts () =
  check_bool "decide [] = Aborted" true (C.decide [] = C.Aborted)

(* Commit-flush failure is the interesting 2PC corner: every participant
   voted yes, but the commit record never reached the durable prefix.
   Presumed abort means the coordinator must abort everywhere and
   recovery must agree — the answer participants were given and the
   answer a restart computes from the flushed WAL must never diverge. *)
let test_2pc_commit_flush_failure_presumes_abort () =
  let engine = Engine.create () in
  let disk = Hw_disk.create engine () in
  let chaos = Chaos.create ~seed:33L { Chaos.default_spec with write_error_p = 1.0 } in
  Hw_disk.set_chaos disk (Some chaos);
  let wal = Db_wal.create disk ~retry:{ Mgr_backing.attempts = 2; backoff_us = 100.0 } () in
  let coord = C.create ~wal () in
  let a = { prepared = 0; committed = 0; aborted = 0 } in
  Engine.spawn engine (fun () ->
      let outcome = C.run coord ~txn:1 [ participant a ] in
      check_bool "flush failure aborts despite unanimous votes" true (outcome = C.Aborted));
  Engine.run engine;
  check_int "participant told to abort" 1 a.aborted;
  check_bool "recover agrees: aborted" true (C.recover coord ~txn:1 = C.Aborted);
  (* Heal the disk: the next transaction commits and recovery tracks it,
     while the aborted one stays aborted (its bookkeeping was dropped at
     the commit point, not left half-done). *)
  Hw_disk.set_chaos disk None;
  Engine.spawn engine (fun () ->
      let outcome = C.run coord ~txn:2 [ participant a ] in
      check_bool "healed disk commits" true (outcome = C.Committed));
  Engine.run engine;
  check_bool "recover: healed txn committed" true (C.recover coord ~txn:2 = C.Committed);
  check_bool "recover: torn txn still aborted" true (C.recover coord ~txn:1 = C.Aborted)

(* The storm version: random write faults across many transactions. The
   invariant under any fault schedule is agreement — for every txn, what
   the participants were told matches what recovery computes from the
   durable log. Deterministic per seed, like every storm here. *)
let test_2pc_chaos_storm_agreement () =
  let run_storm () =
    let engine = Engine.create () in
    let disk = Hw_disk.create engine () in
    let chaos = Chaos.create ~seed:555L { Chaos.default_spec with write_error_p = 0.4 } in
    Hw_disk.set_chaos disk (Some chaos);
    let wal = Db_wal.create disk ~retry:{ Mgr_backing.attempts = 2; backoff_us = 50.0 } () in
    let coord = C.create ~wal () in
    let outcomes = ref [] in
    Engine.spawn engine (fun () ->
        for txn = 1 to 60 do
          let p = { prepared = 0; committed = 0; aborted = 0 } in
          let outcome = C.run coord ~txn [ participant p; participant p ] in
          (* What the participants saw must match the outcome... *)
          check_int
            (Printf.sprintf "txn %d: decision delivered to both" txn)
            2
            (match outcome with C.Committed -> p.committed | C.Aborted -> p.aborted);
          (* ... and what recovery would answer, right now, too. *)
          check_bool
            (Printf.sprintf "txn %d: recovery agrees" txn)
            true
            (C.recover coord ~txn = outcome);
          outcomes := (txn, outcome) :: !outcomes
        done);
    Engine.run engine;
    (* Replaying recovery over the whole run after the storm: the
       durable log still answers exactly what each txn was told. *)
    List.iter
      (fun (txn, outcome) ->
        check_bool (Printf.sprintf "txn %d: post-storm recovery agrees" txn) true
          (C.recover coord ~txn = outcome))
      !outcomes;
    check_bool "the storm actually stormed" true (Chaos.injected_failures chaos > 0);
    check_bool "some transactions survived" true
      (List.exists (fun (_, o) -> o = C.Committed) !outcomes);
    check_bool "some transactions were torn" true
      (List.exists (fun (_, o) -> o = C.Aborted) !outcomes);
    (List.rev !outcomes, Chaos.schedule_fingerprint chaos)
  in
  let first = run_storm () in
  let second = run_storm () in
  check_bool "storm replays seed-for-seed" true (first = second)

(* The same agreement with coordinators running concurrently, so commit
   records overlap in the log: forces coalesce, committers park behind
   a force in flight, and a torn force hands the log to the next one in
   the queue. Whatever a coordinator told its participants must still be
   what recovery answers, then and after the storm. *)
let test_2pc_concurrent_storm_agreement () =
  let run_storm () =
    let engine = Engine.create () in
    let disk = Hw_disk.create engine () in
    let chaos = Chaos.create ~seed:777L { Chaos.default_spec with write_error_p = 0.4 } in
    Hw_disk.set_chaos disk (Some chaos);
    let wal = Db_wal.create disk ~retry:{ Mgr_backing.attempts = 2; backoff_us = 50.0 } () in
    let coord = C.create ~wal () in
    let outcomes = ref [] in
    for worker = 0 to 5 do
      Engine.spawn engine (fun () ->
          for i = 1 to 10 do
            let txn = (worker * 100) + i in
            let p = { prepared = 0; committed = 0; aborted = 0 } in
            let outcome = C.run coord ~txn [ participant p ] in
            check_bool
              (Printf.sprintf "txn %d: recovery agrees at decision time" txn)
              true
              (C.recover coord ~txn = outcome);
            outcomes := (txn, outcome) :: !outcomes
          done)
    done;
    Engine.run engine;
    check_int "no coordinator left parked" 0 (Engine.live_processes engine);
    List.iter
      (fun (txn, outcome) ->
        check_bool (Printf.sprintf "txn %d: post-storm recovery agrees" txn) true
          (C.recover coord ~txn = outcome))
      !outcomes;
    check_bool "commits overlapped in the log" true (Db_wal.group_parks wal > 0);
    check_bool "some transactions survived" true
      (List.exists (fun (_, o) -> o = C.Committed) !outcomes);
    check_bool "some transactions were torn" true
      (List.exists (fun (_, o) -> o = C.Aborted) !outcomes);
    (List.sort compare !outcomes, Chaos.schedule_fingerprint chaos)
  in
  let first = run_storm () in
  check_bool "storm replays seed-for-seed" true (first = run_storm ())

(* ------------------------------------------------------------------ *)
(* Lock waits with deadlines                                           *)
(* ------------------------------------------------------------------ *)

let test_timeout_uncontended_grants () =
  let e = Engine.create () in
  let locks = L.create () in
  Engine.spawn e (fun () ->
      check_bool "free lock grants immediately" true
        (L.acquire_timeout locks ~txn:1 (L.Page (0, 1)) L.X ~timeout_us:1000.0);
      check_bool "held after grant" true (L.held locks ~txn:1 <> []);
      L.release_all locks ~txn:1);
  Engine.run e;
  check_int "no timer was forked" 0 (Engine.live_processes e);
  check_int "no timeouts" 0 (L.timeouts locks)

let test_timeout_expires () =
  let e = Engine.create () in
  let locks = L.create () in
  let verdict = ref None in
  Engine.spawn e (fun () ->
      L.acquire locks ~txn:1 L.Database L.X;
      Engine.delay 50_000.0;
      L.release_all locks ~txn:1);
  Engine.spawn e (fun () ->
      Engine.delay 10.0;
      let t0 = Engine.time () in
      let got = L.acquire_timeout locks ~txn:2 L.Database L.X ~timeout_us:1_000.0 in
      verdict := Some (got, Engine.time () -. t0));
  Engine.run e;
  (match !verdict with
  | Some (got, waited) ->
      check_bool "timed out with false" false got;
      check_bool "waited the deadline, not the holder" true (waited >= 1_000.0 && waited < 2_000.0)
  | None -> Alcotest.fail "waiter never resumed");
  check_int "timeout counted" 1 (L.timeouts locks);
  check_int "nothing held by the loser" 0 (List.length (L.held locks ~txn:2));
  check_int "nobody left blocked" 0 (L.waiting locks);
  check_int "all processes drained" 0 (Engine.live_processes e)

let test_timeout_granted_before_deadline () =
  let e = Engine.create () in
  let locks = L.create () in
  let verdict = ref None in
  Engine.spawn e (fun () ->
      L.acquire locks ~txn:1 L.Database L.X;
      Engine.delay 500.0;
      L.release_all locks ~txn:1);
  Engine.spawn e (fun () ->
      Engine.delay 10.0;
      let t0 = Engine.time () in
      let got = L.acquire_timeout locks ~txn:2 L.Database L.X ~timeout_us:60_000.0 in
      verdict := Some (got, Engine.time () -. t0);
      L.release_all locks ~txn:2);
  Engine.run e;
  (match !verdict with
  | Some (got, waited) ->
      check_bool "granted before the deadline" true got;
      check_bool "resumed at the release, not the deadline" true (waited < 1_000.0)
  | None -> Alcotest.fail "waiter never resumed");
  check_int "no timeouts" 0 (L.timeouts locks);
  (* The deadline process still runs to completion and finds a Granted
     waiter: a no-op, and nothing leaks. *)
  check_int "all processes drained" 0 (Engine.live_processes e)

let test_timeout_cancelled_head_unblocks_queue () =
  (* txn 1 holds S; txn 2 queues for X with a deadline; txn 3 queues for
     S behind it (FIFO, no overtaking). When txn 2's deadline cancels it,
     wake must skip the tombstone and grant txn 3 against the S holder —
     a cancelled head must not wedge the queue. *)
  let e = Engine.create () in
  let locks = L.create () in
  let t3_got_at = ref nan in
  Engine.spawn e (fun () ->
      L.acquire locks ~txn:1 L.Database L.S;
      Engine.delay 50_000.0;
      L.release_all locks ~txn:1);
  Engine.spawn e (fun () ->
      Engine.delay 10.0;
      check_bool "X waiter times out" false
        (L.acquire_timeout locks ~txn:2 L.Database L.X ~timeout_us:1_000.0));
  Engine.spawn e (fun () ->
      Engine.delay 20.0;
      L.acquire locks ~txn:3 L.Database L.S;
      t3_got_at := Engine.time ();
      L.release_all locks ~txn:3);
  Engine.run e;
  check_bool "S waiter was blocked by the queued X, then freed by its cancellation" true
    (!t3_got_at >= 1_000.0 && !t3_got_at < 2_000.0);
  check_int "exactly one timeout" 1 (L.timeouts locks);
  check_int "all processes drained" 0 (Engine.live_processes e)

(* ------------------------------------------------------------------ *)
(* Manager coexistence: several engines in one process                 *)
(* ------------------------------------------------------------------ *)

(* Two Mgr_dbms instances on one kernel: distinct manager names,
   relations on distinct backing files even at equal sizes (the historic
   1000+pages scheme collided), clean conservation across both. *)
let test_two_dbms_instances_one_kernel () =
  let machine = Hw_machine.create ~memory_bytes:(512 * 4096) () in
  let kernel = Epcm_kernel.create machine in
  let init = Epcm_kernel.initial_segment kernel in
  let next_slot = ref 0 in
  let source ~dst ~dst_page ~count =
    let init_seg = Epcm_kernel.segment kernel init in
    let granted = ref 0 in
    while !granted < count && !next_slot < Epcm_segment.length init_seg do
      (if (Epcm_segment.page init_seg !next_slot).Epcm_segment.frame <> None then begin
         Epcm_kernel.migrate_pages kernel ~src:init ~dst ~src_page:!next_slot
           ~dst_page:(dst_page + !granted) ~count:1 ();
         incr granted
       end);
      incr next_slot
    done;
    !granted
  in
  let m1 = Mgr_dbms.create kernel ~name:"dbms-a" ~source ~pool_capacity:32 () in
  let m2 = Mgr_dbms.create kernel ~name:"dbms-b" ~source ~pool_capacity:32 () in
  let file_of mgr seg =
    match Mgr_generic.segment_kind (Mgr_dbms.generic mgr) seg with
    | Some (Mgr_generic.File { file_id }) -> file_id
    | Some Mgr_generic.Anon | None -> Alcotest.fail "relation is not a File segment"
  in
  (* Same-size relations within one instance: distinct files. *)
  let r1a = Mgr_dbms.create_relation m1 ~name:"a-orders" ~pages:16 in
  let r1b = Mgr_dbms.create_relation m1 ~name:"a-lineitems" ~pages:16 in
  check_bool "same-size relations back onto distinct files" true (file_of m1 r1a <> file_of m1 r1b);
  (* And across instances each keeps its own file-id counter. *)
  let r2a = Mgr_dbms.create_relation m2 ~name:"b-orders" ~pages:16 in
  check_int "second instance starts its own file sequence" (file_of m1 r1a) (file_of m2 r2a);
  check_bool "relations are distinct segments" true
    (List.length (List.sort_uniq compare [ r1a; r1b; r2a ]) = 3);
  check_int "frame conservation across both managers"
    (Hw_machine.n_frames machine)
    (Epcm_kernel.frame_owner_total kernel);
  Alcotest.(check (list (pair int int)))
    "incremental audit = scan with two managers live"
    (Epcm_kernel.frame_owner_audit_scan kernel)
    (Epcm_kernel.frame_owner_audit kernel)

(* Two shard worlds built before either runs, then executed: results
   must equal fresh single builds — no hidden global state between
   engine instances in one process. *)
let test_two_shard_worlds_coexist () =
  let spec = { Db_shard.default with Db_shard.sp_shards = 2; sp_total_txns = 600 } in
  let w0 = Db_shard.build spec ~shard:0 in
  let w1 = Db_shard.build spec ~shard:1 in
  let r0 = Db_shard.execute w0 in
  let r1 = Db_shard.execute w1 in
  let fresh0 = Db_shard.run_shard spec ~shard:0 in
  let fresh1 = Db_shard.run_shard spec ~shard:1 in
  check_bool "shard 0: interleaved build = fresh run" true (r0 = fresh0);
  check_bool "shard 1: interleaved build = fresh run" true (r1 = fresh1);
  check_bool "the two shards did different work" true (r0 <> r1)

(* ------------------------------------------------------------------ *)
(* Db_shard: zero-delta, accounting, determinism                       *)
(* ------------------------------------------------------------------ *)

let small spec = { spec with Db_shard.sp_total_txns = 800 }

let test_single_shard_zero_delta () =
  let r = Db_shard.run_shard (small { Db_shard.default with Db_shard.sp_shards = 1 }) ~shard:0 in
  check_int "no 2PC messages" 0 r.Db_shard.r_msgs;
  check_int "no prepares" 0 r.Db_shard.r_prepares;
  check_int "no DSM transfers" 0 r.Db_shard.r_dsm_transfers;
  check_int "no cross-shard transactions" 0 r.Db_shard.r_cross;
  check_int "no lock timeouts" 0 r.Db_shard.r_lock_timeouts;
  check_int "no aborts" 0 r.Db_shard.r_aborts;
  check_int "every transaction committed" 800 r.Db_shard.r_commits;
  check_bool "conserved" true r.Db_shard.r_conserved

let test_multi_shard_accounting () =
  let spec = small Db_shard.default in
  let results = List.init spec.Db_shard.sp_shards (fun shard -> Db_shard.run_shard spec ~shard) in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 results in
  check_int "shares sum to the spec total" spec.Db_shard.sp_total_txns
    (total (fun r -> r.Db_shard.r_txns));
  check_int "commits + aborts = txns"
    (total (fun r -> r.Db_shard.r_txns))
    (total (fun r -> r.Db_shard.r_commits) + total (fun r -> r.Db_shard.r_aborts));
  check_int "local + cross = txns"
    (total (fun r -> r.Db_shard.r_txns))
    (total (fun r -> r.Db_shard.r_local) + total (fun r -> r.Db_shard.r_cross));
  check_bool "cross-shard work happened" true (total (fun r -> r.Db_shard.r_cross) > 0);
  check_bool "2PC messages flowed" true (total (fun r -> r.Db_shard.r_msgs) > 0);
  check_bool "DSM shipped pages" true (total (fun r -> r.Db_shard.r_dsm_transfers) > 0);
  List.iter
    (fun r ->
      check_bool
        (Printf.sprintf "shard %d conserved" r.Db_shard.r_shard)
        true r.Db_shard.r_conserved)
    results

let test_shard_deterministic () =
  let spec = small Db_shard.default in
  check_bool "same spec, same shard, same result" true
    (Db_shard.run_shard spec ~shard:2 = Db_shard.run_shard spec ~shard:2);
  check_bool "different shards differ" true
    (Db_shard.run_shard spec ~shard:0 <> Db_shard.run_shard spec ~shard:1)

(* The group-commit sweep reads commit latency from a profiled machine
   ("wal.flush" on its disk). Profiling only observes: the result must
   equal an unprofiled run's, field for field. *)
let test_profiled_shard_zero_delta () =
  let spec = small { Db_shard.default with Db_shard.sp_shards = 1 } in
  let w = Db_shard.build spec ~shard:0 in
  let machine = Db_shard.machine w in
  Hw_machine.set_profiling machine true;
  let profiled = Db_shard.execute w in
  check_bool "profiled run = plain run" true (profiled = Db_shard.run_shard spec ~shard:0);
  match Sim_metrics.hist (Hw_machine.metrics machine) ~kind:"wal.flush" with
  | Some h ->
      check_int "one wal.flush sample per commit" profiled.Db_shard.r_commits
        (Sim_metrics.Hist.count h)
  | None -> Alcotest.fail "no wal.flush histogram on a profiled shard"

let test_shard_txns_split () =
  let spec = { Db_shard.default with Db_shard.sp_shards = 4; sp_total_txns = 10 } in
  Alcotest.(check (list int))
    "even split, remainder to low shards" [ 3; 3; 2; 2 ]
    (List.init 4 (fun shard -> Db_shard.shard_txns spec ~shard))

(* ------------------------------------------------------------------ *)
(* Exp_shard: the record end to end                                    *)
(* ------------------------------------------------------------------ *)

let test_exp_shard_quick_record () =
  let r = Exp_shard.run ~quick:true ~jobs:2 () in
  if not (Exp_report.all_pass r.Exp_shard.checks) then
    Alcotest.fail
      (String.concat "; "
         (List.filter_map
            (fun c ->
              if c.Exp_report.pass then None
              else Some (c.Exp_report.what ^ " — " ^ c.Exp_report.detail))
            r.Exp_shard.checks));
  check_bool "replay identical" true r.Exp_shard.replay_identical;
  (match Exp_record.validate (Exp_codec.enc Exp_shard.codec r) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("in-memory record invalid: " ^ e));
  match Exp_record.validate_string (Exp_codec.print Exp_shard.codec r) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("round-tripped record invalid: " ^ e)

let () =
  Alcotest.run "shard"
    [
      ( "two-phase commit",
        [
          QCheck_alcotest.to_alcotest prop_decide_differential;
          Alcotest.test_case "unanimous ballot commits" `Quick test_2pc_unanimous_commits;
          Alcotest.test_case "any abort vote aborts" `Quick test_2pc_any_abort_aborts;
          Alcotest.test_case "empty ballot aborts" `Quick test_2pc_empty_ballot_aborts;
          Alcotest.test_case "commit-flush failure presumes abort" `Quick
            test_2pc_commit_flush_failure_presumes_abort;
          Alcotest.test_case "chaos storm: participants and recovery agree" `Quick
            test_2pc_chaos_storm_agreement;
          Alcotest.test_case "concurrent chaos storm: participants and recovery agree" `Quick
            test_2pc_concurrent_storm_agreement;
        ] );
      ( "lock deadlines",
        [
          Alcotest.test_case "uncontended grant forks no timer" `Quick
            test_timeout_uncontended_grants;
          Alcotest.test_case "deadline expires into refusal" `Quick test_timeout_expires;
          Alcotest.test_case "grant before deadline" `Quick test_timeout_granted_before_deadline;
          Alcotest.test_case "cancelled head unblocks the queue" `Quick
            test_timeout_cancelled_head_unblocks_queue;
        ] );
      ( "coexistence",
        [
          Alcotest.test_case "two dbms managers on one kernel" `Quick
            test_two_dbms_instances_one_kernel;
          Alcotest.test_case "two shard worlds in one process" `Slow
            test_two_shard_worlds_coexist;
        ] );
      ( "shard engine",
        [
          Alcotest.test_case "single shard is zero-delta" `Quick test_single_shard_zero_delta;
          Alcotest.test_case "multi-shard accounting" `Slow test_multi_shard_accounting;
          Alcotest.test_case "deterministic per (spec, shard)" `Slow test_shard_deterministic;
          Alcotest.test_case "transaction split" `Quick test_shard_txns_split;
          Alcotest.test_case "profiling is zero-delta" `Quick test_profiled_shard_zero_delta;
        ] );
      ( "record",
        [ Alcotest.test_case "quick record validates" `Slow test_exp_shard_quick_record ] );
    ]

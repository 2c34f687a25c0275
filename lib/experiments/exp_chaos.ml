module K = Epcm_kernel
module Mgr = Epcm_manager
module G = Mgr_generic
module Engine = Sim_engine

type scenario = {
  s_name : string;
  s_decisions : int;
  s_injected_failures : int;
  s_injected_delays : int;
  s_app_failures : int;
  s_retries : int;
  s_frames_expected : int;
  s_frames_owned : int;
  s_recovered : bool;
  s_fingerprint : string;
  s_counters : (string * int) list;
}

type result = { scenarios : scenario list; replay_ok : bool; checks : Exp_report.check list }

let default_seed = 0x5EEDL

(* ------------------------------------------------------------------ *)
(* Shared scaffolding                                                 *)
(* ------------------------------------------------------------------ *)

let kernel_with_source ~frames () =
  let machine = Hw_machine.create ~memory_bytes:(frames * 4096) () in
  let kernel = K.create machine in
  (machine, kernel, K.initial_source kernel)

(* The counter table's rows for a backing store; each scenario lists its
   rows in name order. *)
let backing_counters b =
  [
    ("backing.read_failed", Mgr_backing.failures b `Read);
    ("backing.read_retries", Mgr_backing.retries b `Read);
    ("backing.write_failed", Mgr_backing.failures b `Write);
    ("backing.write_retries", Mgr_backing.retries b `Write);
  ]

let finish ~name ~chaos ~retries ~counters ~app_failures ~frames_expected ~frames_owned
    ~recovered =
  {
    s_name = name;
    s_decisions = Sim_chaos.decisions chaos;
    s_injected_failures = Sim_chaos.injected_failures chaos;
    s_injected_delays = Sim_chaos.injected_delays chaos;
    s_app_failures = app_failures;
    s_retries = retries;
    s_frames_expected = frames_expected;
    s_frames_owned = frames_owned;
    s_recovered = recovered;
    s_fingerprint = Sim_chaos.schedule_fingerprint chaos;
    s_counters = List.filter (fun (_, v) -> v > 0) counters;
  }

(* ------------------------------------------------------------------ *)
(* Scenario 1: generic manager under a read/write/outage storm        *)
(* ------------------------------------------------------------------ *)

let generic_storm ~seed =
  let frames = 96 in
  let pages = 128 in
  let machine, kernel, source = kernel_with_source ~frames () in
  let chaos =
    Sim_chaos.create ~seed
      {
        Sim_chaos.default_spec with
        read_error_p = 0.05;
        write_error_p = 0.08;
        delay_p = 0.05;
        delay_min_us = 100.0;
        delay_max_us = 2_000.0;
        outages = [ (2.0e6, 2.4e6) ];
      }
  in
  Hw_disk.set_chaos machine.Hw_machine.disk (Some chaos);
  let backing =
    Mgr_backing.disk
      ~retry:{ Mgr_backing.attempts = 4; backoff_us = 500.0 }
      machine.Hw_machine.disk ~page_bytes:4096
  in
  let g =
    G.create kernel ~name:"storm" ~mode:`In_process ~backing ~source ~pool_capacity:64
      ~refill_batch:16 ~reclaim_batch:8 ()
  in
  let seg =
    G.create_segment g ~name:"data" ~pages ~kind:(G.File { file_id = 7 }) ~high_water:pages ()
  in
  let app_failures = ref 0 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      (* More pages than frames: every round both fills absent pages (disk
         reads) and forces eviction of dirty ones (disk writes). *)
      for round = 0 to 3 do
        for page = 0 to pages - 1 do
          let access = if (page + round) mod 2 = 0 then Mgr.Write else Mgr.Read in
          try K.touch kernel ~space:seg ~page ~access
          with Mgr_backing.Backing_failed _ -> incr app_failures
        done
      done);
  Engine.run machine.Hw_machine.engine;
  (* Storm over: detach the plan and verify full recovery. *)
  Hw_disk.set_chaos machine.Hw_machine.disk None;
  let recovered = ref true in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for page = 0 to pages - 1 do
        try K.touch kernel ~space:seg ~page ~access:Mgr.Read with _ -> recovered := false
      done);
  Engine.run machine.Hw_machine.engine;
  let recovered = !recovered && Engine.live_processes machine.Hw_machine.engine = 0 in
  let s = G.stats g in
  finish ~name:"generic-storm" ~chaos ~retries:(Mgr_backing.io_retries backing)
    ~counters:
      (backing_counters backing
      @ [
          ("storm.close_writeback_lost", s.G.close_writeback_losses);
          ("storm.fill_failed", s.G.fill_failures);
          ("storm.writeback_skipped", s.G.writeback_failures);
        ])
    ~app_failures:!app_failures
    ~frames_expected:(Hw_machine.n_frames machine)
    ~frames_owned:(K.frame_owner_total kernel) ~recovered

(* ------------------------------------------------------------------ *)
(* Scenario 2: prefetch pipeline degrading to demand paging           *)
(* ------------------------------------------------------------------ *)

let prefetch_degrade ~seed =
  let frames = 96 in
  let machine, kernel, source = kernel_with_source ~frames () in
  let chaos =
    Sim_chaos.create ~seed
      { Sim_chaos.default_spec with read_error_p = 0.15; delay_p = 0.1; delay_min_us = 200.0;
        delay_max_us = 1_000.0 }
  in
  Hw_disk.set_chaos machine.Hw_machine.disk (Some chaos);
  let p =
    Mgr_prefetch.create kernel
      ~retry:{ Mgr_backing.attempts = 2; backoff_us = 200.0 }
      ~source ~pool_capacity:64 ()
  in
  let seg = Mgr_prefetch.create_file_segment p ~name:"scan" ~file_id:3 ~pages:64 in
  let app_failures = ref 0 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      (* Out-of-core scan: read-ahead a batch, compute, consume it. A
         prefetch killed by an injected error leaves its page absent; the
         consuming touch degrades to a demand fill (or fails and is
         retried on the next sweep). *)
      for sweep = 0 to 1 do
        ignore sweep;
        for batch = 0 to 7 do
          let base = batch * 8 in
          Mgr_prefetch.prefetch p ~seg ~page:base ~count:8;
          Engine.delay 5_000.0;
          for page = base to base + 7 do
            try K.touch kernel ~space:seg ~page ~access:Mgr.Read
            with Mgr_backing.Backing_failed _ -> incr app_failures
          done;
          Mgr_prefetch.discard p ~seg ~page:base ~count:8
        done
      done);
  Engine.run machine.Hw_machine.engine;
  Hw_disk.set_chaos machine.Hw_machine.disk None;
  let recovered = ref true in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for page = 0 to 63 do
        try K.touch kernel ~space:seg ~page ~access:Mgr.Read with _ -> recovered := false
      done);
  Engine.run machine.Hw_machine.engine;
  let recovered = !recovered && Engine.live_processes machine.Hw_machine.engine = 0 in
  let backing = Mgr_prefetch.backing p in
  finish ~name:"prefetch-degrade" ~chaos ~retries:(Mgr_backing.io_retries backing)
    ~counters:
      (backing_counters backing
      @ [
          ("prefetch.degraded_to_demand", Mgr_prefetch.degraded_to_demand p);
          ("prefetch.prefetch_fill_failed", Mgr_prefetch.prefetch_failures p);
        ])
    ~app_failures:!app_failures
    ~frames_expected:(Hw_machine.n_frames machine)
    ~frames_owned:(K.frame_owner_total kernel) ~recovered

(* ------------------------------------------------------------------ *)
(* Scenario 3: WAL group commit under torn writes                     *)
(* ------------------------------------------------------------------ *)

let wal_torn_writes ~seed =
  let engine = Engine.create () in
  let disk = Hw_disk.create engine () in
  let chaos =
    Sim_chaos.create ~seed { Sim_chaos.default_spec with write_error_p = 0.2 }
  in
  Hw_disk.set_chaos disk (Some chaos);
  let wal =
    Db_wal.create disk ~retry:{ Mgr_backing.attempts = 2; backoff_us = 200.0 } ()
  in
  let failed_commits = ref 0 in
  let acked = ref [] in
  Engine.spawn engine (fun () ->
      for i = 1 to 80 do
        let lsn = Db_wal.append wal in
        if i mod 4 = 0 then
          try
            Db_wal.commit wal ~lsn;
            acked := lsn :: !acked
          with Db_wal.Flush_failed _ -> incr failed_commits
      done);
  Engine.run engine;
  (* A torn write never acknowledges lost records: every acked commit must
     sit inside the durable prefix. *)
  let durable = Db_wal.flushed wal in
  let acked_durable = List.for_all (fun lsn -> lsn <= durable) !acked in
  Hw_disk.set_chaos disk None;
  let replayed = ref true in
  Engine.spawn engine (fun () ->
      (* Recovery: with the device healthy again, force the whole log. *)
      try Db_wal.flush_to wal ~lsn:(Db_wal.appended wal)
      with Db_wal.Flush_failed _ -> replayed := false);
  Engine.run engine;
  let recovered = acked_durable && !replayed && Db_wal.flushed wal = Db_wal.appended wal in
  finish ~name:"wal-torn-writes" ~chaos ~retries:(Db_wal.flush_retries wal)
    ~counters:
      [
        ("wal.flush_failed", Db_wal.flush_failures wal);
        ("wal.flush_retries", Db_wal.flush_retries wal);
      ]
    ~app_failures:!failed_commits
    ~frames_expected:0 ~frames_owned:0 ~recovered

(* ------------------------------------------------------------------ *)
(* Scenario 4: checkpoint durability under write errors               *)
(* ------------------------------------------------------------------ *)

let checkpoint_durable ~seed =
  let frames = 64 in
  let machine, kernel, source = kernel_with_source ~frames () in
  let chaos =
    Sim_chaos.create ~seed { Sim_chaos.default_spec with write_error_p = 0.15 }
  in
  Hw_disk.set_chaos machine.Hw_machine.disk (Some chaos);
  let backing =
    Mgr_backing.disk
      ~retry:{ Mgr_backing.attempts = 2; backoff_us = 200.0 }
      machine.Hw_machine.disk ~page_bytes:4096
  in
  let ck = Mgr_checkpoint.create kernel ~backing ~source ~pool_capacity:48 () in
  let seg = Mgr_checkpoint.create_segment ck ~name:"heap" ~pages:24 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for page = 0 to 23 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Write
      done;
      for round = 1 to 3 do
        let _gen = Mgr_checkpoint.begin_checkpoint ck ~seg in
        for page = 0 to 23 do
          if page mod round = 0 then K.touch kernel ~space:seg ~page ~access:Mgr.Write
        done;
        Mgr_checkpoint.end_checkpoint ck ~seg
      done);
  Engine.run machine.Hw_machine.engine;
  let storm_failures = Mgr_checkpoint.durable_failures ck in
  Hw_disk.set_chaos machine.Hw_machine.disk None;
  Engine.spawn machine.Hw_machine.engine (fun () ->
      let _gen = Mgr_checkpoint.begin_checkpoint ck ~seg in
      for page = 0 to 23 do
        if page mod 2 = 0 then K.touch kernel ~space:seg ~page ~access:Mgr.Write
      done;
      Mgr_checkpoint.end_checkpoint ck ~seg);
  Engine.run machine.Hw_machine.engine;
  (* A healthy device loses nothing: the post-storm generation persists
     without a single durability failure. *)
  let recovered =
    Mgr_checkpoint.durable_failures ck = storm_failures
    && Engine.live_processes machine.Hw_machine.engine = 0
  in
  finish ~name:"checkpoint-durable" ~chaos ~retries:(Mgr_backing.io_retries backing)
    ~counters:
      (backing_counters backing
      @ [ ("checkpoint.durable_write_lost", Mgr_checkpoint.durable_failures ck) ])
    ~app_failures:(Mgr_checkpoint.durable_failures ck)
    ~frames_expected:(Hw_machine.n_frames machine)
    ~frames_owned:(K.frame_owner_total kernel) ~recovered

(* ------------------------------------------------------------------ *)
(* Harness                                                            *)
(* ------------------------------------------------------------------ *)

let run_once ~seed =
  [
    generic_storm ~seed;
    prefetch_degrade ~seed:(Int64.add seed 1L);
    wal_torn_writes ~seed:(Int64.add seed 2L);
    checkpoint_durable ~seed:(Int64.add seed 3L);
  ]

let run ?(seed = default_seed) () =
  let scenarios = run_once ~seed in
  (* Replay equality: the same seed must reproduce the identical fault
     schedule, counters and final state, scenario for scenario. *)
  let again = run_once ~seed in
  let replay_ok = scenarios = again in
  let checks =
    Exp_report.check ~what:"same seed replays the identical schedules and final state"
      ~pass:replay_ok
      ~detail:(Printf.sprintf "%d scenarios compared" (List.length scenarios))
    :: List.concat_map
         (fun s ->
           [
             Exp_report.check
               ~what:(Printf.sprintf "%s: every frame owned by exactly one live segment" s.s_name)
               ~pass:(s.s_frames_owned = s.s_frames_expected)
               ~detail:(Printf.sprintf "%d/%d frames" s.s_frames_owned s.s_frames_expected);
             Exp_report.check
               ~what:(Printf.sprintf "%s: the storm actually injected faults" s.s_name)
               ~pass:(s.s_injected_failures > 0)
               ~detail:(Printf.sprintf "%d failures in %d decisions" s.s_injected_failures
                          s.s_decisions);
             Exp_report.check
               ~what:(Printf.sprintf "%s: full recovery once the plan is detached" s.s_name)
               ~pass:s.s_recovered ~detail:"clean pass after set_chaos None";
           ])
         scenarios
  in
  { scenarios; replay_ok; checks }

let render r =
  let table =
    Exp_report.fmt_table
      ~header:
        [ "Scenario"; "decisions"; "inj fail"; "inj delay"; "app fail"; "retries"; "frames" ]
      ~rows:
        (List.map
           (fun s ->
             [
               s.s_name;
               string_of_int s.s_decisions;
               string_of_int s.s_injected_failures;
               string_of_int s.s_injected_delays;
               string_of_int s.s_app_failures;
               string_of_int s.s_retries;
               Printf.sprintf "%d/%d" s.s_frames_owned s.s_frames_expected;
             ])
           r.scenarios)
  in
  let counters =
    String.concat ""
      (List.map
         (fun s ->
           Printf.sprintf "%s:\n%s" s.s_name
             (String.concat ""
                (List.map (fun (n, v) -> Printf.sprintf "  %-40s %8d\n" n v) s.s_counters)))
         r.scenarios)
  in
  "Chaos: deterministic fault injection on the disk paths\n" ^ table
  ^ "\nRetry/degradation counters:\n" ^ counters ^ "\nShape checks:\n"
  ^ Exp_report.render_checks r.checks

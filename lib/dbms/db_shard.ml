module K = Epcm_kernel
module Seg = Epcm_segment
module Engine = Sim_engine
module Resource = Sim_sync.Resource
module Rng = Sim_rng

type spec = {
  sp_shards : int;
  sp_total_txns : int;
  sp_workers : int;
  sp_cpus : int;
  sp_accounts_pages : int;
  sp_remote_pages : int;
  sp_hot_remote_pages : int;
  sp_cross_fraction : float;
  sp_lock_timeout_us : float;
  sp_net_latency_us : float;
  sp_service_ms : float;
  sp_touch_pages : int;
  sp_group_commit : bool;
  sp_seed : int64;
}

let default =
  {
    sp_shards = 4;
    sp_total_txns = 100_000;
    sp_workers = 8;
    sp_cpus = 6;
    sp_accounts_pages = 512;
    sp_remote_pages = 128;
    sp_hot_remote_pages = 8;
    sp_cross_fraction = 0.10;
    sp_lock_timeout_us = 12_000.0;
    sp_net_latency_us = 1_000.0;
    sp_service_ms = 2.0;
    sp_touch_pages = 4;
    sp_group_commit = true;
    sp_seed = 8_080_808L;
  }

type result = {
  r_shard : int;
  r_txns : int;
  r_commits : int;
  r_aborts : int;
  r_local : int;
  r_cross : int;
  r_p50_ms : float;
  r_p99_ms : float;
  r_tps : float;
  r_sim_us : float;
  r_events : int;
  r_msgs : int;
  r_prepares : int;
  r_wal_flushes : int;
  r_wal_parks : int;
  r_dsm_transfers : int;
  r_lock_timeouts : int;
  r_frames : int;
  r_conserved : bool;
}

(* The 1992 server drive of the Table 4 study; every shard gets one for
   its WAL. *)
let shard_disk =
  { Hw_disk.seek_us = 9_200.0; half_rotation_us = 4_150.0; us_per_kb = 170.0 }

type world = {
  spec : spec;
  shard : int;
  machine : Hw_machine.t;
  kernel : K.t;
  mgr : Mgr_dbms.t;
  seg_accounts : Seg.id;
  locks : Db_locks.t;
  wal : Db_wal.t;
  cpus : Resource.t;
  rng : Rng.t;
  (* Cross-shard state: absent entirely on a single-shard world. *)
  dsm : Mgr_dsm.t option;
  remote_locks : Db_locks.t array;  (* one lock table per peer shard *)
  remote_wals : Db_wal.t array;  (* one prepare/outcome log per peer *)
  peer_names : string array;  (* each peer's participant name *)
  coord : Db_coord.t;
  mutable next_txn : int;
  mutable commits : int;
  mutable aborts : int;
  mutable local_txns : int;
  mutable cross_txns : int;
  latencies : Sim_stats.Series.t;
}

let shard_txns spec ~shard =
  let base = spec.sp_total_txns / spec.sp_shards in
  let extra = spec.sp_total_txns mod spec.sp_shards in
  base + (if shard < extra then 1 else 0)

let build spec ~shard =
  if spec.sp_shards < 1 then invalid_arg "Db_shard.build: need at least one shard";
  if shard < 0 || shard >= spec.sp_shards then invalid_arg "Db_shard.build: shard out of range";
  let cross = spec.sp_shards > 1 in
  let pool_capacity = 256 in
  let dsm_pages = if cross then spec.sp_shards * spec.sp_remote_pages else 0 in
  let total_pages = spec.sp_accounts_pages + dsm_pages + pool_capacity + 512 in
  let machine =
    Hw_machine.create ~preset:Hw_machine.Sgi_4d_380 ~memory_bytes:(total_pages * 4096)
      ~disk_params:shard_disk ()
  in
  let kernel = K.create machine in
  (* The DBMS and DSM managers both fill from this one source. *)
  let source = K.initial_source kernel in
  let mgr =
    Mgr_dbms.create kernel ~name:(Printf.sprintf "shard-%d-dbms" shard) ~source ~pool_capacity
      ()
  in
  let seg_accounts =
    Mgr_dbms.create_relation mgr ~name:(Printf.sprintf "shard-%d-accounts" shard)
      ~pages:spec.sp_accounts_pages
  in
  let new_wal () =
    Db_wal.create machine.Hw_machine.disk ~group_commit:spec.sp_group_commit ()
  in
  let wal = new_wal () in
  let dsm =
    if cross then
      Some
        (Mgr_dsm.create kernel ~name:(Printf.sprintf "shard-%d-dsm" shard) ~source
           ~nodes:spec.sp_shards ~pages:spec.sp_remote_pages
           ~net_latency_us:spec.sp_net_latency_us ())
    else None
  in
  let peers = if cross then spec.sp_shards else 0 in
  let coord =
    Db_coord.create ~wal
      ~net:(fun ~messages ->
        match dsm with Some d -> Mgr_dsm.charge_messages d ~messages | None -> ())
      ()
  in
  {
    spec;
    shard;
    machine;
    kernel;
    mgr;
    seg_accounts;
    locks = Db_locks.create ();
    wal;
    cpus = Resource.create machine.Hw_machine.engine ~capacity:spec.sp_cpus;
    rng = Rng.create (Int64.add spec.sp_seed (Int64.of_int (7919 * (shard + 1))));
    dsm;
    remote_locks = Array.init peers (fun _ -> Db_locks.create ());
    remote_wals = Array.init peers (fun _ -> new_wal ());
    peer_names = Array.init peers (Printf.sprintf "shard-%d");
    coord;
    next_txn = 0;
    commits = 0;
    aborts = 0;
    local_txns = 0;
    cross_txns = 0;
    latencies = Sim_stats.Series.create ~capacity:(shard_txns spec ~shard) ();
  }

let cpu_ms w ms = Resource.hold w.cpus (ms *. 1000.0)

let touch w page =
  K.touch w.kernel ~space:w.seg_accounts ~page ~access:Epcm_manager.Write

let touch_run w ~from =
  let last = w.spec.sp_accounts_pages - 1 in
  for i = 0 to w.spec.sp_touch_pages - 1 do
    touch w (min last (from + i))
  done

(* A purely local DebitCredit: hierarchical locks, account-page writes,
   processor time, then the WAL force — parked behind the log's in-flight
   force under group commit, its own transfer under per-commit forcing.
   The locks are held across the force (strict two-phase locking). *)
let local_txn w rng ~txn =
  Db_locks.acquire w.locks ~txn Db_locks.Database Db_locks.IX;
  let page = Rng.int rng w.spec.sp_accounts_pages in
  Db_locks.acquire w.locks ~txn (Db_locks.Page (0, page)) Db_locks.X;
  touch_run w ~from:page;
  cpu_ms w w.spec.sp_service_ms;
  let lsn = Db_wal.append w.wal in
  Db_wal.note_page_write w.wal ~seg:w.seg_accounts ~page ~lsn;
  let ok = try Db_wal.commit w.wal ~lsn; true with Db_wal.Flush_failed _ -> false in
  Db_locks.release_all w.locks ~txn;
  ok

(* Cross-shard DebitCredit: debit here, credit on [remote], atomically
   via 2PC. The local participant is this shard's real lock table and
   WAL; the remote participant is the peer's modelled lock table and
   prepare log, with the DSM shipping the credited page. *)
let cross_txn w rng ~txn =
  let spec = w.spec in
  let dsm = Option.get w.dsm in
  let remote =
    let r = Rng.int rng (spec.sp_shards - 1) in
    if r >= w.shard then r + 1 else r
  in
  let lpage = Rng.int rng spec.sp_accounts_pages in
  let rpage =
    if Rng.bernoulli rng 0.5 then Rng.int rng spec.sp_hot_remote_pages
    else Rng.int rng spec.sp_remote_pages
  in
  let local =
    {
      Db_coord.p_name = "local";
      p_prepare =
        (fun () ->
          Db_locks.acquire w.locks ~txn Db_locks.Database Db_locks.IX;
          Db_locks.acquire w.locks ~txn (Db_locks.Page (0, lpage)) Db_locks.X;
          touch_run w ~from:lpage;
          cpu_ms w spec.sp_service_ms;
          let lsn = Db_wal.append w.wal in
          Db_wal.note_page_write w.wal ~seg:w.seg_accounts ~page:lpage ~lsn;
          (try
             Db_wal.commit w.wal ~lsn;
             Db_coord.Prepared
           with Db_wal.Flush_failed _ -> Db_coord.Vote_abort));
      p_commit = (fun () -> Db_locks.release_all w.locks ~txn);
      p_abort = (fun () -> Db_locks.release_all w.locks ~txn);
    }
  in
  let rlocks = w.remote_locks.(remote) in
  let rwal = w.remote_wals.(remote) in
  let remote_part =
    {
      Db_coord.p_name = w.peer_names.(remote);
      p_prepare =
        (fun () ->
          if
            not
              (Db_locks.acquire_timeout rlocks ~txn (Db_locks.Page (remote, rpage)) Db_locks.X
                 ~timeout_us:spec.sp_lock_timeout_us)
          then Db_coord.Vote_abort
          else begin
            (* Ship the credited page over and force the prepare record. *)
            ignore (Mgr_dsm.read dsm ~node:remote ~page:rpage : Hw_page_data.t);
            let lsn = Db_wal.append rwal in
            try
              Db_wal.commit rwal ~lsn;
              Db_coord.Prepared
            with Db_wal.Flush_failed _ -> Db_coord.Vote_abort
          end);
      p_commit =
        (fun () ->
          Mgr_dsm.write dsm ~node:remote ~page:rpage
            (Hw_page_data.block ~file:(4000 + remote) ~block:rpage ~version:txn);
          ignore (Db_wal.append rwal : Db_wal.lsn);
          (* outcome record rides the next group commit *)
          Db_locks.release_all rlocks ~txn);
      p_abort = (fun () -> Db_locks.release_all rlocks ~txn);
    }
  in
  Db_coord.run w.coord ~txn [ local; remote_part ] = Db_coord.Committed

let run_txn w rng =
  w.next_txn <- w.next_txn + 1;
  let txn = (w.shard * 10_000_000) + w.next_txn in
  let arrival = Engine.time () in
  let cross = w.spec.sp_shards > 1 && Rng.bernoulli rng w.spec.sp_cross_fraction in
  let committed = if cross then cross_txn w rng ~txn else local_txn w rng ~txn in
  if cross then w.cross_txns <- w.cross_txns + 1 else w.local_txns <- w.local_txns + 1;
  if committed then w.commits <- w.commits + 1 else w.aborts <- w.aborts + 1;
  Sim_stats.Series.add w.latencies ((Engine.time () -. arrival) /. 1000.0)

let execute w =
  let spec = w.spec in
  let engine = w.machine.Hw_machine.engine in
  let share = shard_txns spec ~shard:w.shard in
  for worker = 0 to spec.sp_workers - 1 do
    let quota =
      (share / spec.sp_workers)
      + (if worker < share mod spec.sp_workers then 1 else 0)
    in
    let rng = Rng.split w.rng in
    if quota > 0 then
      Engine.spawn engine ~name:(Printf.sprintf "shard-%d-worker-%d" w.shard worker)
        (fun () ->
          for _ = 1 to quota do
            run_txn w rng
          done)
  done;
  Engine.run engine;
  let obs = K.observe w.kernel in
  let sim_us = obs.K.o_sim_us in
  let txns = w.commits + w.aborts in
  let pct p =
    if Sim_stats.Series.count w.latencies = 0 then 0.0
    else Sim_stats.Series.percentile w.latencies p
  in
  {
    r_shard = w.shard;
    r_txns = txns;
    r_commits = w.commits;
    r_aborts = w.aborts;
    r_local = w.local_txns;
    r_cross = w.cross_txns;
    r_p50_ms = pct 50.0;
    r_p99_ms = pct 99.0;
    r_tps = (if sim_us > 0.0 then float_of_int txns /. (sim_us /. 1_000_000.0) else 0.0);
    r_sim_us = sim_us;
    r_events = obs.K.o_events;
    r_msgs = Db_coord.messages w.coord;
    r_prepares = Db_coord.prepares w.coord;
    r_wal_flushes = Db_wal.flushes w.wal;
    r_wal_parks = Db_wal.group_parks w.wal;
    r_dsm_transfers = (match w.dsm with Some d -> Mgr_dsm.transfers d | None -> 0);
    r_lock_timeouts =
      Db_locks.timeouts w.locks
      + Array.fold_left (fun acc l -> acc + Db_locks.timeouts l) 0 w.remote_locks;
    r_frames = obs.K.o_frames;
    r_conserved = obs.K.o_conserved;
  }

let run_shard spec ~shard = execute (build spec ~shard)
let machine w = w.machine

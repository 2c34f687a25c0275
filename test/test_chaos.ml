(* Chaos regression tests: seeded fault storms against every disk-touching
   layer, asserting the three properties the fault-injection subsystem
   promises — no frame leaks (conservation audit after every storm),
   bounded retries (the budget is a hard ceiling, observable in counters),
   and eventual completion (the workload finishes and recovers once the
   plan is detached) — plus seed-for-seed replay equality. *)

module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module G = Mgr_generic
module Machine = Hw_machine
module Engine = Sim_engine
module Chaos = Sim_chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Conservation after a storm, checked both ways: the frame total, and the
   incremental O(segments) owner audit against the fold-based page-array
   scan. A storm is the counter's worst case — every abandoned fill or
   writeback is a map/unmap the counter must have tracked exactly. *)
let check_conserved ?(what = "frame conservation") machine kernel =
  check_int what (Machine.n_frames machine) (K.frame_owner_total kernel);
  Alcotest.(check (list (pair int int)))
    (what ^ ": incremental audit = scan audit")
    (K.frame_owner_audit_scan kernel) (K.frame_owner_audit kernel)

(* One disk read of a 4096-byte page costs seek + half rotation + transfer
   = 12 000 + 4 150 + 4 × 666 = 18 814 µs, so an outage window of
   [0, 20 000) fails exactly the first attempt and lets the first retry
   (which completes around t = 39.6 ms) through. *)
let page_read_us = 18_814.0

let kernel_with_source ~frames () =
  let machine = Machine.create ~memory_bytes:(frames * 4096) () in
  let kernel = K.create machine in
  (machine, kernel, K.initial_source kernel)

(* ------------------------------------------------------------------ *)
(* Mgr_backing: the retry loop itself                                  *)
(* ------------------------------------------------------------------ *)

(* An outage that swallows only the first attempt: the read succeeds on
   retry, costs exactly one extra device attempt, and is not a failure. *)
let test_backing_retry_transient () =
  let engine = Engine.create () in
  let disk = Hw_disk.create engine () in
  let chaos =
    Chaos.create ~seed:7L { Chaos.default_spec with outages = [ (0.0, page_read_us +. 1.0) ] }
  in
  Hw_disk.set_chaos disk (Some chaos);
  let backing = Mgr_backing.disk disk ~page_bytes:4096 in
  let ok = ref false in
  Engine.spawn engine (fun () ->
      ignore (Mgr_backing.read_block backing ~file:1 ~block:0);
      ok := true);
  Engine.run engine;
  check_bool "read eventually succeeded" true !ok;
  check_int "one logical read" 1 (Mgr_backing.reads backing);
  check_int "one retry" 1 (Mgr_backing.io_retries backing);
  check_int "no failures" 0 (Mgr_backing.io_failures backing);
  check_int "device saw two attempts" 2 (Hw_disk.reads disk)

(* Certain failure: the budget is a hard ceiling — exactly [attempts]
   device attempts, then Backing_failed carrying the logical address. *)
let test_backing_retry_exhaustion () =
  let engine = Engine.create () in
  let disk = Hw_disk.create engine () in
  let chaos = Chaos.create ~seed:7L { Chaos.default_spec with read_error_p = 1.0 } in
  Hw_disk.set_chaos disk (Some chaos);
  let retry = { Mgr_backing.attempts = 4; backoff_us = 100.0 } in
  let backing = Mgr_backing.disk ~retry disk ~page_bytes:4096 in
  let outcome = ref None in
  Engine.spawn engine (fun () ->
      try ignore (Mgr_backing.read_block backing ~file:2 ~block:5)
      with Mgr_backing.Backing_failed { op; file; block; attempts } ->
        outcome := Some (op, file, block, attempts));
  Engine.run engine;
  (match !outcome with
  | Some (`Read, 2, 5, 4) -> ()
  | Some _ -> Alcotest.fail "Backing_failed carried the wrong address"
  | None -> Alcotest.fail "retry budget exhaustion did not raise");
  check_int "attempts - 1 retries" 3 (Mgr_backing.io_retries backing);
  check_int "one abandoned operation" 1 (Mgr_backing.io_failures backing);
  check_int "device attempts = budget" 4 (Hw_disk.reads disk)

(* A permanently bad block fails every attempt; its neighbours are fine. *)
let test_backing_bad_block () =
  let engine = Engine.create () in
  let disk = Hw_disk.create engine () in
  let bad = Mgr_backing.disk_block ~file:3 ~block:9 in
  let chaos = Chaos.create ~seed:7L { Chaos.default_spec with bad_blocks = [ bad ] } in
  Hw_disk.set_chaos disk (Some chaos);
  let backing = Mgr_backing.disk disk ~page_bytes:4096 in
  let bad_failed = ref false and neighbour_ok = ref false in
  Engine.spawn engine (fun () ->
      (try ignore (Mgr_backing.read_block backing ~file:3 ~block:9)
       with Mgr_backing.Backing_failed _ -> bad_failed := true);
      ignore (Mgr_backing.read_block backing ~file:3 ~block:10);
      neighbour_ok := true);
  Engine.run engine;
  check_bool "bad block failed" true !bad_failed;
  check_bool "neighbour block unaffected" true !neighbour_ok

(* ------------------------------------------------------------------ *)
(* Mgr_generic: storm, conservation, completion                        *)
(* ------------------------------------------------------------------ *)

let generic_storm ~seed =
  let frames = 48 in
  let pages = 64 in
  let machine, kernel, source = kernel_with_source ~frames () in
  let chaos =
    Chaos.create ~seed
      {
        Chaos.default_spec with
        read_error_p = 0.08;
        write_error_p = 0.1;
        delay_p = 0.05;
        delay_min_us = 100.0;
        delay_max_us = 1_000.0;
      }
  in
  Hw_disk.set_chaos machine.Machine.disk (Some chaos);
  let retry = { Mgr_backing.attempts = 3; backoff_us = 300.0 } in
  let backing = Mgr_backing.disk ~retry machine.Machine.disk ~page_bytes:4096 in
  let g =
    G.create kernel ~name:"storm" ~mode:`In_process ~backing ~source ~pool_capacity:32
      ~refill_batch:8 ~reclaim_batch:4 ()
  in
  let seg =
    G.create_segment g ~name:"data" ~pages ~kind:(G.File { file_id = 7 }) ~high_water:pages ()
  in
  let app_failures = ref 0 in
  Engine.spawn machine.Machine.engine (fun () ->
      for round = 0 to 2 do
        for page = 0 to pages - 1 do
          let access = if (page + round) mod 2 = 0 then Mgr.Write else Mgr.Read in
          try K.touch kernel ~space:seg ~page ~access
          with Mgr_backing.Backing_failed _ -> incr app_failures
        done
      done);
  Engine.run machine.Machine.engine;
  Hw_disk.set_chaos machine.Machine.disk None;
  (machine, kernel, g, chaos, !app_failures, seg)

let test_generic_storm () =
  let machine, kernel, g, chaos, _fails, seg = generic_storm ~seed:11L in
  (* No frame leaks, however many fills and writebacks were abandoned. *)
  check_conserved machine kernel;
  check_bool "the storm actually stormed" true (Chaos.injected_failures chaos > 0);
  (* Bounded retries: the device never saw more attempts per logical
     operation than the budget allows. *)
  let logical = Mgr_backing.reads (G.backing g) + Mgr_backing.writes (G.backing g) in
  let budget = 3 in
  check_bool "retries within budget" true
    (Mgr_backing.io_retries (G.backing g) <= logical * (budget - 1));
  (* Eventual completion: with the plan detached every page is reachable
     and no process is left wedged. *)
  let survivors = ref 0 in
  Engine.spawn machine.Machine.engine (fun () ->
      for page = 0 to 63 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Read;
        incr survivors
      done);
  Engine.run machine.Machine.engine;
  check_int "all pages reachable after recovery" 64 !survivors;
  check_int "no wedged processes" 0 (Engine.live_processes machine.Machine.engine);
  check_conserved ~what:"frame conservation after recovery" machine kernel

let test_generic_storm_replay () =
  let observe seed =
    let _, kernel, g, chaos, fails, _ = generic_storm ~seed in
    let b = G.backing g in
    ( Chaos.schedule_fingerprint chaos,
      Chaos.decisions chaos,
      List.map (fun op -> (Mgr_backing.retries b op, Mgr_backing.failures b op)) [ `Read; `Write ],
      fails,
      (G.stats g).G.fill_failures,
      (G.stats g).G.writeback_failures,
      K.frame_owner_total kernel )
  in
  let a = observe 11L and b = observe 11L and c = observe 12L in
  check_bool "same seed, same storm (schedule, counters, degradations)" true (a = b);
  let fp (f, _, _, _, _, _, _) = f in
  check_bool "different seed, different storm" true (fp a <> fp c)

(* ------------------------------------------------------------------ *)
(* Mgr_prefetch: forked fills dying, faults degrading to demand        *)
(* ------------------------------------------------------------------ *)

let test_prefetch_degrades () =
  let frames = 48 in
  let machine, kernel, source = kernel_with_source ~frames () in
  let chaos = Chaos.create ~seed:21L { Chaos.default_spec with read_error_p = 0.45 } in
  Hw_disk.set_chaos machine.Machine.disk (Some chaos);
  let p =
    Mgr_prefetch.create kernel
      ~retry:{ Mgr_backing.attempts = 2; backoff_us = 200.0 }
      ~source ~pool_capacity:48 ()
  in
  let seg = Mgr_prefetch.create_file_segment p ~name:"scan" ~file_id:3 ~pages:32 in
  let app_failures = ref 0 in
  Engine.spawn machine.Machine.engine (fun () ->
      for batch = 0 to 3 do
        let base = batch * 8 in
        Mgr_prefetch.prefetch p ~seg ~page:base ~count:8;
        Engine.delay 5_000.0;
        for page = base to base + 7 do
          try K.touch kernel ~space:seg ~page ~access:Mgr.Read
          with Mgr_backing.Backing_failed _ -> incr app_failures
        done
      done);
  Engine.run machine.Machine.engine;
  Hw_disk.set_chaos machine.Machine.disk None;
  check_conserved machine kernel;
  check_int "no wedged waiters" 0 (Engine.live_processes machine.Machine.engine);
  (* With a 20% error rate over 32 prefetched pages some forked fill died
     (seed-pinned), and every such page was served by degradation instead
     of wedging its waiter on the gate. *)
  check_bool "some prefetch fills died" true (Mgr_prefetch.prefetch_failures p > 0);
  check_bool "faults degraded to demand fills" true
    (Mgr_prefetch.degraded_to_demand p + Mgr_prefetch.demand_fills p > 0);
  (* Completion: every page of the scan is resident or reachable now. *)
  let ok = ref 0 in
  Engine.spawn machine.Machine.engine (fun () ->
      for page = 0 to 31 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Read;
        incr ok
      done);
  Engine.run machine.Machine.engine;
  check_int "scan completes after the storm" 32 !ok

(* ------------------------------------------------------------------ *)
(* Db_wal: torn writes never acknowledge lost records                  *)
(* ------------------------------------------------------------------ *)

let test_wal_torn_write () =
  let engine = Engine.create () in
  let disk = Hw_disk.create engine () in
  let chaos = Chaos.create ~seed:33L { Chaos.default_spec with write_error_p = 1.0 } in
  Hw_disk.set_chaos disk (Some chaos);
  let wal =
    Db_wal.create disk ~retry:{ Mgr_backing.attempts = 2; backoff_us = 100.0 } ()
  in
  let torn = ref false in
  Engine.spawn engine (fun () ->
      let lsn = ref 0 in
      for _ = 1 to 5 do
        lsn := Db_wal.append wal
      done;
      try Db_wal.flush_to wal ~lsn:!lsn
      with Db_wal.Flush_failed { lsn = l; attempts = 2 } when l = !lsn -> torn := true);
  Engine.run engine;
  check_bool "flush failed as Flush_failed{attempts=2}" true !torn;
  (* The durable prefix did not advance — a torn write acknowledges
     nothing. *)
  check_int "flushed LSN unchanged" 0 (Db_wal.flushed wal);
  check_bool "retries counted" true (Db_wal.flush_retries wal > 0);
  check_int "failures counted" 1 (Db_wal.flush_failures wal);
  (* Device healthy again: recovery forces the whole log. *)
  Hw_disk.set_chaos disk None;
  Engine.spawn engine (fun () -> Db_wal.flush_to wal ~lsn:(Db_wal.appended wal));
  Engine.run engine;
  check_int "recovery flushed everything" 5 (Db_wal.flushed wal)

(* ------------------------------------------------------------------ *)
(* Mgr_default: a failed flush leaves the page dirty for the next one *)
(* ------------------------------------------------------------------ *)

let test_default_flush_keeps_failed_page_dirty () =
  let machine, kernel, source = kernel_with_source ~frames:64 () in
  let backing =
    Mgr_backing.disk
      ~retry:{ Mgr_backing.attempts = 2; backoff_us = 100.0 }
      machine.Machine.disk ~page_bytes:4096
  in
  let ucds = Mgr_default.create kernel ~backing ~source ~pool_capacity:16 () in
  let seg = Mgr_default.open_file ucds ~file_id:5 ~size_pages:4 ~empty:true () in
  K.uio_write kernel ~seg ~page:0 (Hw_page_data.of_string "flushed");
  let flush () =
    Engine.spawn machine.Machine.engine (fun () -> Mgr_default.flush_file ucds seg);
    Engine.run machine.Machine.engine
  in
  let dirty () =
    Epcm_flags.mem (Seg.page (K.segment kernel seg) 0).Seg.flags Epcm_flags.dirty
  in
  Hw_disk.set_chaos machine.Machine.disk
    (Some (Chaos.create ~seed:55L { Chaos.default_spec with write_error_p = 1.0 }));
  flush ();
  check_int "the write was abandoned" 1 (Mgr_backing.failures backing `Write);
  check_bool "the page stays dirty" true (dirty ());
  check_bool "no block on the backing store" false (Mgr_backing.has_block backing ~file:5 ~block:0);
  Hw_disk.set_chaos machine.Machine.disk None;
  flush ();
  check_bool "a healthy flush cleans it" false (dirty ());
  check_bool "and writes its block" true (Mgr_backing.has_block backing ~file:5 ~block:0)

(* ------------------------------------------------------------------ *)
(* Mgr_checkpoint: durability loss is counted, never wedges a close    *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_durable_loss () =
  let frames = 48 in
  let machine, kernel, source = kernel_with_source ~frames () in
  let chaos = Chaos.create ~seed:44L { Chaos.default_spec with write_error_p = 0.3 } in
  let backing =
    Mgr_backing.disk
      ~retry:{ Mgr_backing.attempts = 2; backoff_us = 100.0 }
      machine.Machine.disk ~page_bytes:4096
  in
  let c = Mgr_checkpoint.create kernel ~backing ~source ~pool_capacity:32 () in
  let seg = Mgr_checkpoint.create_segment c ~name:"heap" ~pages:16 in
  let closed = ref 0 in
  Engine.spawn machine.Machine.engine (fun () ->
      for page = 0 to 15 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Write
      done;
      Hw_disk.set_chaos machine.Machine.disk (Some chaos);
      for _ = 0 to 1 do
        ignore (Mgr_checkpoint.begin_checkpoint c ~seg);
        for page = 0 to 15 do
          K.touch kernel ~space:seg ~page ~access:Mgr.Write
        done;
        Mgr_checkpoint.end_checkpoint c ~seg;
        incr closed
      done);
  Engine.run machine.Machine.engine;
  Hw_disk.set_chaos machine.Machine.disk None;
  check_int "both checkpoints closed despite lost images" 2 !closed;
  check_bool "durability losses counted" true (Mgr_checkpoint.durable_failures c > 0);
  check_bool "most images made it" true
    (Mgr_checkpoint.durable_writes c > Mgr_checkpoint.durable_failures c);
  check_conserved machine kernel;
  check_int "no wedged processes" 0 (Engine.live_processes machine.Machine.engine)

(* ------------------------------------------------------------------ *)
(* Mgr_coloring: seeded traffic storm, colors and conservation hold    *)
(* ------------------------------------------------------------------ *)

(* The coloring manager never touches the disk, so its storm is seeded
   traffic, not injected IO faults: a random touch pattern driving pool
   refills under a tight capacity. The invariants are the same — frames
   conserved, every resident page correctly colored, no wedged process. *)
let test_coloring_traffic_storm () =
  let frames = 256 in
  let machine, kernel, _ = kernel_with_source ~frames () in
  let init = K.initial_segment kernel in
  let mem = machine.Machine.mem in
  let source ~color ~dst ~dst_page ~count =
    let init_seg = K.segment kernel init in
    let granted = ref 0 in
    let slot = ref 0 in
    while !granted < count && !slot < Seg.length init_seg do
      (match (Seg.page init_seg !slot).Seg.frame with
      | Some f
        when (match color with
             | None -> true
             | Some c -> Hw_phys_mem.color mem f = c) ->
          K.migrate_pages kernel ~src:init ~dst ~src_page:!slot ~dst_page:(dst_page + !granted)
            ~count:1 ();
          incr granted
      | Some _ | None -> ());
      incr slot
    done;
    !granted
  in
  let mgr = Mgr_coloring.create kernel ~n_colors:16 ~source ~pool_capacity:64 () in
  let seg = Mgr_coloring.create_segment mgr ~name:"ws" ~pages:48 in
  let rng = Sim_rng.create 55L in
  Engine.spawn machine.Machine.engine (fun () ->
      for _ = 1 to 300 do
        let page = Sim_rng.int rng 48 in
        let access = if Sim_rng.bool rng then Mgr.Write else Mgr.Read in
        K.touch kernel ~space:seg ~page ~access
      done);
  Engine.run machine.Machine.engine;
  let good, total = Mgr_coloring.audit mgr ~seg in
  check_int "every resident page correctly colored" total good;
  check_bool "the storm faulted pages in" true (total > 0);
  check_int "no color misses with a cooperative SPCM" 0 (Mgr_coloring.color_misses mgr);
  check_int "no wedged processes" 0 (Engine.live_processes machine.Machine.engine);
  check_conserved machine kernel

(* Coloring under a live cache model *and* injected disk faults: a
   Mgr_coloring segment and a Mgr_generic file segment churn on the same
   kernel while the disk storms, with a physically-indexed L2 attached so
   every touch and UIO sweep feeds the cache. The cache is pure
   observation — the invariants after the storm are the usual
   conservation audits (flat and per-tier, incremental = scan) plus the
   cache's own conservation identity (accesses = hits + misses). *)
let coloring_cache_storm ~tiered ~seed =
  let fast = 64 in
  let machine =
    if tiered then
      Machine.create
        ~tiers:
          [
            Hw_phys_mem.dram_tier ~bytes:(fast * 4096);
            Hw_phys_mem.slow_dram_tier ~bytes:(192 * 4096);
          ]
        ~cache:(Machine.l2_cache ~size_bytes:(64 * 1024) ())
        ()
    else
      Machine.create ~memory_bytes:(256 * 4096)
        ~cache:(Machine.l2_cache ~size_bytes:(64 * 1024) ())
        ()
  in
  let kernel = K.create machine in
  let init = K.initial_segment kernel in
  let mem = machine.Machine.mem in
  (* The coloring manager draws from the front of the initial segment
     (exactly tier 0 when tiered); the generic manager from the back, so
     the two never race for the same frames. *)
  let color_limit = if tiered then fast else 256 in
  let generic_base = if tiered then fast else 128 in
  let colored_source ~color ~dst ~dst_page ~count =
    let init_seg = K.segment kernel init in
    let granted = ref 0 in
    let slot = ref 0 in
    while !granted < count && !slot < color_limit do
      (match (Seg.page init_seg !slot).Seg.frame with
      | Some f
        when (match color with
             | None -> true
             | Some c -> Hw_phys_mem.color mem f = c) ->
          K.migrate_pages kernel ~src:init ~dst ~src_page:!slot ~dst_page:(dst_page + !granted)
            ~count:1 ();
          incr granted
      | Some _ | None -> ());
      incr slot
    done;
    !granted
  in
  let generic_source ~dst ~dst_page ~count =
    let init_seg = K.segment kernel init in
    let granted = ref 0 in
    let slot = ref generic_base in
    while !granted < count && !slot < Seg.length init_seg do
      (if (Seg.page init_seg !slot).Seg.frame <> None then begin
         K.migrate_pages kernel ~src:init ~dst ~src_page:!slot ~dst_page:(dst_page + !granted)
           ~count:1 ();
         incr granted
       end);
      incr slot
    done;
    !granted
  in
  let chaos =
    Chaos.create ~seed
      {
        Chaos.default_spec with
        read_error_p = 0.08;
        write_error_p = 0.1;
        delay_p = 0.05;
        delay_min_us = 100.0;
        delay_max_us = 1_000.0;
      }
  in
  Hw_disk.set_chaos machine.Machine.disk (Some chaos);
  let retry = { Mgr_backing.attempts = 3; backoff_us = 300.0 } in
  let backing = Mgr_backing.disk ~retry machine.Machine.disk ~page_bytes:4096 in
  let g =
    G.create kernel ~name:"cache-storm" ~mode:`In_process ~backing ~source:generic_source
      ~pool_capacity:32 ~refill_batch:8 ~reclaim_batch:4 ()
  in
  let file_seg =
    G.create_segment g ~name:"data" ~pages:48 ~kind:(G.File { file_id = 9 }) ~high_water:48 ()
  in
  let mgr =
    Mgr_coloring.create kernel
      ?tier:(if tiered then Some 0 else None)
      ~source:colored_source ~pool_capacity:16 ()
  in
  let colored_seg = Mgr_coloring.create_segment mgr ~name:"ws" ~pages:32 in
  let rng = Sim_rng.create seed in
  let app_failures = ref 0 in
  Engine.spawn machine.Machine.engine (fun () ->
      for _ = 1 to 400 do
        let space, pages =
          if Sim_rng.bool rng then (colored_seg, 32) else (file_seg, 48)
        in
        let page = Sim_rng.int rng pages in
        let access = if Sim_rng.bool rng then Mgr.Write else Mgr.Read in
        try K.touch kernel ~space ~page ~access
        with Mgr_backing.Backing_failed _ -> incr app_failures
      done);
  Engine.run machine.Machine.engine;
  Hw_disk.set_chaos machine.Machine.disk None;
  (machine, kernel, mgr, colored_seg, chaos)

let check_coloring_cache_storm ~tiered () =
  let machine, kernel, mgr, colored_seg, chaos = coloring_cache_storm ~tiered ~seed:31L in
  check_bool "the storm actually stormed" true (Chaos.injected_failures chaos > 0);
  check_conserved machine kernel;
  check_bool "per-tier audit = scan audit" true
    (K.frame_owner_audit_tiered kernel = K.frame_owner_audit_tiered_scan kernel);
  let accesses, hits, misses = Machine.cache_stats machine in
  check_int "cache stats conserved (hits + misses = accesses)" accesses (hits + misses);
  check_bool "the cache saw the storm's traffic" true (accesses > 0);
  check_bool "some accesses actually missed" true (misses > 0);
  let good, total = Mgr_coloring.audit mgr ~seg:colored_seg in
  check_int "every resident page correctly colored" total good;
  check_bool "the colored segment faulted pages in" true (total > 0);
  check_int "no color misses with a cooperative SPCM" 0 (Mgr_coloring.color_misses mgr);
  check_int "no wedged processes" 0 (Engine.live_processes machine.Machine.engine)

let test_coloring_cache_storm_flat () = check_coloring_cache_storm ~tiered:false ()
let test_coloring_cache_storm_tiered () = check_coloring_cache_storm ~tiered:true ()

(* ------------------------------------------------------------------ *)
(* Mgr_compressed: spill writes and disk re-fills under a write storm  *)
(* ------------------------------------------------------------------ *)

let test_compressed_spill_storm () =
  let frames = 96 in
  let machine, kernel, source = kernel_with_source ~frames () in
  let chaos =
    Chaos.create ~seed:66L { Chaos.default_spec with write_error_p = 0.3; read_error_p = 0.15 }
  in
  (* A tiny pool budget forces most evictions to spill to the real disk,
     which is where the storm bites. *)
  let config = { Mgr_compressed.default_config with budget_pages = 2.0 } in
  let mgr =
    Mgr_compressed.create kernel ~disk:machine.Machine.disk ~config ~source ~pool_capacity:48 ()
  in
  let seg = Mgr_compressed.create_segment mgr ~name:"cache" ~pages:32 in
  let app_failures = ref 0 in
  Engine.spawn machine.Machine.engine (fun () ->
      for page = 0 to 31 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Write
      done;
      Hw_disk.set_chaos machine.Machine.disk (Some chaos);
      (* Evict everything: compressions beyond the budget become spill
         writes, some of which the storm kills. *)
      for page = 0 to 31 do
        try Mgr_compressed.evict mgr ~seg ~page
        with Mgr_backing.Backing_failed _ -> incr app_failures
      done;
      (* Fault the working set back: decompressions, disk fills (under
         read errors), or zero-fills for entries the storm lost. *)
      for page = 0 to 31 do
        try K.touch kernel ~space:seg ~page ~access:Mgr.Read
        with Mgr_backing.Backing_failed _ -> incr app_failures
      done);
  Engine.run machine.Machine.engine;
  Hw_disk.set_chaos machine.Machine.disk None;
  check_bool "the storm actually stormed" true (Chaos.injected_failures chaos > 0);
  check_bool "evictions compressed" true (Mgr_compressed.compressions mgr > 0);
  check_bool "budget overflow spilled to disk" true (Mgr_compressed.spills mgr > 0);
  check_conserved machine kernel;
  check_int "no wedged processes" 0 (Engine.live_processes machine.Machine.engine);
  (* Recovery: with the plan detached the whole segment is reachable. *)
  let ok = ref 0 in
  Engine.spawn machine.Machine.engine (fun () ->
      for page = 0 to 31 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Read;
        incr ok
      done);
  Engine.run machine.Machine.engine;
  check_int "all pages reachable after recovery" 32 !ok;
  check_conserved ~what:"frame conservation after recovery" machine kernel

(* ------------------------------------------------------------------ *)
(* Mgr_dsm: seeded coherence storm, protocol invariants + conservation *)
(* ------------------------------------------------------------------ *)

let dsm_storm ~seed =
  let frames = 256 in
  let machine, kernel, source = kernel_with_source ~frames () in
  let nodes = 4 and pages = 12 in
  let dsm = Mgr_dsm.create kernel ~source ~nodes ~pages () in
  let rng = Sim_rng.create seed in
  Engine.spawn machine.Machine.engine (fun () ->
      for _ = 1 to 400 do
        let node = Sim_rng.int rng nodes and page = Sim_rng.int rng pages in
        if Sim_rng.bernoulli rng 0.4 then
          Mgr_dsm.write dsm ~node ~page (Hw_page_data.of_string (Printf.sprintf "n%d" node))
        else ignore (Mgr_dsm.read dsm ~node ~page)
      done);
  Engine.run machine.Machine.engine;
  (machine, kernel, dsm, nodes, pages)

let test_dsm_coherence_storm () =
  let machine, kernel, dsm, nodes, pages = dsm_storm ~seed:77L in
  (* MSI safety after an arbitrary interleaving: never two Exclusive
     holders, and an Exclusive holder excludes Shared copies. *)
  for page = 0 to pages - 1 do
    let states = List.init nodes (fun node -> Mgr_dsm.state dsm ~node ~page) in
    let exclusive = List.length (List.filter (( = ) Mgr_dsm.Exclusive) states) in
    let shared = List.length (List.filter (( = ) Mgr_dsm.Shared) states) in
    check_bool
      (Printf.sprintf "page %d: at most one Exclusive holder" page)
      true (exclusive <= 1);
    check_bool
      (Printf.sprintf "page %d: Exclusive excludes Shared copies" page)
      true
      (exclusive = 0 || shared = 0);
    check_int
      (Printf.sprintf "page %d: holders match the per-node states" page)
      (exclusive + shared)
      (List.length (Mgr_dsm.holders dsm ~page))
  done;
  check_bool "the storm shipped copies" true (Mgr_dsm.transfers dsm > 0);
  check_bool "writes invalidated copies" true (Mgr_dsm.invalidations dsm > 0);
  check_int "no wedged processes" 0 (Engine.live_processes machine.Machine.engine);
  check_conserved machine kernel

let test_dsm_storm_replay () =
  let observe seed =
    let _, kernel, dsm, _, _ = dsm_storm ~seed in
    ( Mgr_dsm.transfers dsm,
      Mgr_dsm.invalidations dsm,
      Mgr_dsm.downgrades dsm,
      K.frame_owner_total kernel )
  in
  check_bool "same seed, same protocol traffic" true (observe 77L = observe 77L);
  let t1, i1, _, _ = observe 77L and t2, i2, _, _ = observe 78L in
  check_bool "different seed, different traffic" true (t1 <> t2 || i1 <> i2)

(* ------------------------------------------------------------------ *)
(* Mgr_gc: garbage discards dodge a write storm entirely               *)
(* ------------------------------------------------------------------ *)

let test_gc_discard_storm () =
  let frames = 96 in
  let machine, kernel, source = kernel_with_source ~frames () in
  (* The internal backing retries 3 times, so a per-attempt error rate of
     0.85 makes each logical write fail with p ~ 0.61 — over 16 dirty
     pages both outcomes (failed and landed) occur for any seed. *)
  let chaos = Chaos.create ~seed:88L { Chaos.default_spec with write_error_p = 0.85 } in
  let mgr = Mgr_gc.create kernel ~disk:machine.Machine.disk ~source ~pool_capacity:48 () in
  let heap = Mgr_gc.create_heap mgr ~name:"heap" ~pages:32 in
  let garbage_reclaimed = ref 0 in
  let conventional_reclaimed = ref 0 in
  let write_failures = ref 0 in
  Engine.spawn machine.Machine.engine (fun () ->
      (* Dirty the whole heap, then storm the disk. *)
      for page = 0 to 31 do
        K.touch kernel ~space:heap ~page ~access:Mgr.Write
      done;
      Hw_disk.set_chaos machine.Machine.disk (Some chaos);
      (* The collector declares the top half garbage: reclaiming it needs
         no writeback, so the storm cannot touch it. *)
      Mgr_gc.declare_garbage mgr ~seg:heap ~page:16 ~count:16;
      garbage_reclaimed := Mgr_gc.reclaim_garbage mgr ~seg:heap;
      (* A conventional pager would write the (dirty) bottom half to swap
         — squarely into the storm. *)
      for page = 0 to 15 do
        try conventional_reclaimed := !conventional_reclaimed + Mgr_gc.evict_conventional mgr ~seg:heap ~page ~count:1
        with Mgr_backing.Backing_failed _ -> incr write_failures
      done);
  Engine.run machine.Machine.engine;
  Hw_disk.set_chaos machine.Machine.disk None;
  check_int "garbage reclaimed without any disk traffic" 16 !garbage_reclaimed;
  check_int "dirty garbage pages avoided writebacks" 16 (Mgr_gc.writebacks_avoided mgr);
  check_bool "the storm failed some conventional writebacks" true (!write_failures > 0);
  check_bool "some conventional evictions still landed" true (!conventional_reclaimed > 0);
  (* A failed writeback must leave the page resident and owned — frames
     conserved either way. *)
  check_conserved machine kernel;
  check_int "no wedged processes" 0 (Engine.live_processes machine.Machine.engine)

(* ------------------------------------------------------------------ *)
(* Mgr_dbms: index paging through a read storm                         *)
(* ------------------------------------------------------------------ *)

let test_dbms_index_paging_storm () =
  let frames = 256 in
  let machine, kernel, source = kernel_with_source ~frames () in
  let chaos = Chaos.create ~seed:99L { Chaos.default_spec with read_error_p = 0.3 } in
  let mgr = Mgr_dbms.create kernel ~disk:machine.Machine.disk ~source ~pool_capacity:96 () in
  let _rel = Mgr_dbms.create_relation mgr ~name:"accounts" ~pages:32 in
  let idx = Mgr_dbms.create_index mgr ~name:"btree" ~pages:16 ~resident:true () in
  let load_failures = ref 0 in
  Engine.spawn machine.Machine.engine (fun () ->
      (* Shrink: the index is evicted wholesale (clean pages, a discard —
         no disk traffic, so the storm cannot interfere). *)
      Mgr_dbms.evict_index mgr idx;
      Hw_disk.set_chaos machine.Machine.disk (Some chaos);
      (* Page it back in through the storm: each fill is a disk read. *)
      (try Mgr_dbms.load_index_from_disk mgr idx
       with Mgr_backing.Backing_failed _ -> incr load_failures);
      Hw_disk.set_chaos machine.Machine.disk None;
      (* Recovery: the retry either already got every page or this second
         pass fills the rest — then a query touches the whole index. *)
      Mgr_dbms.load_index_from_disk mgr idx;
      Mgr_dbms.touch_index mgr idx ~pages:(List.init 16 Fun.id));
  Engine.run machine.Machine.engine;
  check_bool "the storm actually stormed" true (Chaos.injected_failures chaos > 0);
  check_bool "index resident after recovery" true (Mgr_dbms.index_resident mgr idx);
  check_int "all index pages resident" 16 (Mgr_dbms.resident_index_pages mgr);
  check_bool "page-in events counted" true (Mgr_dbms.page_in_events mgr > 0);
  check_conserved machine kernel;
  check_int "no wedged processes" 0 (Engine.live_processes machine.Machine.engine)

(* ------------------------------------------------------------------ *)
(* Memory market: a tenant storm with the disk failing under it        *)
(* ------------------------------------------------------------------ *)

(* A thousand interactive tenants arrive while the savers page their
   working sets through a failing disk: a 200 ms outage window lands in
   the middle of the first swap-out's writeback train (which starts around
   t = 25 ms and runs one page_read_us-scale write at a time), so grants,
   deferrals and refusals all happen while backing I/O is being retried
   and abandoned. The run must stay conserved the same way the clean runs
   are: incremental frame audit == scan audit, every frame owned, the
   admission queue drained, every holding returned, and the market's
   conservation identity intact with no balance driven below zero. *)
let market_storm_config =
  {
    Wl_market.small with
    c_name = "market-storm";
    c_seed = 1337L;
    c_saver_backing = Wl_market.Disk;
    c_chaos =
      Some
        {
          Chaos.default_spec with
          write_error_p = 0.05;
          outages = [ (50_000.0, 250_000.0) ];
        };
  }

let test_market_storm () =
  let r = Wl_market.run market_storm_config in
  check_bool "the storm actually stormed" true (r.Wl_market.r_io_failures > 0);
  check_bool "conserved (audits, queue, holdings, processes)" true r.Wl_market.r_conserved;
  check_bool "no drams minted or destroyed" true (r.Wl_market.r_conservation_residual < 1e-9);
  check_bool "no negative balances" true (r.Wl_market.r_min_balance >= 0.0);
  check_int "every tenant accounted for" r.Wl_market.r_tenants
    (r.Wl_market.r_completed + r.Wl_market.r_refused);
  check_bool "admission control engaged mid-storm" true (r.Wl_market.r_defer_events > 0);
  check_bool "savers kept cycling" true (r.Wl_market.r_saver_cycles > 0)

let test_market_storm_replay () =
  let a = Wl_market.run market_storm_config in
  let b = Wl_market.run market_storm_config in
  check_bool "storm replays seed-for-seed" true (a = b)

(* ------------------------------------------------------------------ *)
(* Sharded engine: a contention storm across shards                    *)
(* ------------------------------------------------------------------ *)

(* Crank the cross-shard fraction to half of all transactions, squeeze
   the contended remote window to a single hot page and cut the lock
   wait budget: remote prepares pile up on the same lock and the
   timeout → Vote_abort → presumed-abort path fires constantly. The
   storm invariants are the usual ones — exact accounting (commits +
   aborts = txns, local + cross = txns), frame conservation on every
   shard machine, no leaked processes (folded into [r_conserved]) —
   plus seed-for-seed replay of the whole result, latencies included. *)
let shard_storm_spec =
  {
    Db_shard.default with
    Db_shard.sp_shards = 3;
    sp_total_txns = 900;
    sp_cross_fraction = 0.5;
    sp_hot_remote_pages = 1;
    sp_remote_pages = 16;
    sp_lock_timeout_us = 2_000.0;
    sp_seed = 424_242L;
  }

let run_shard_storm () =
  List.init shard_storm_spec.Db_shard.sp_shards (fun shard ->
      Db_shard.run_shard shard_storm_spec ~shard)

let test_shard_contention_storm () =
  let results = run_shard_storm () in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 results in
  check_bool "the storm actually stormed (lock timeouts)" true
    (total (fun r -> r.Db_shard.r_lock_timeouts) > 0);
  check_bool "timeouts became 2PC aborts" true (total (fun r -> r.Db_shard.r_aborts) > 0);
  check_bool "most transactions still commit" true
    (total (fun r -> r.Db_shard.r_commits) > total (fun r -> r.Db_shard.r_aborts));
  check_int "commits + aborts = txns"
    (total (fun r -> r.Db_shard.r_txns))
    (total (fun r -> r.Db_shard.r_commits) + total (fun r -> r.Db_shard.r_aborts));
  check_int "local + cross = txns"
    (total (fun r -> r.Db_shard.r_txns))
    (total (fun r -> r.Db_shard.r_local) + total (fun r -> r.Db_shard.r_cross));
  check_int "every transaction ran somewhere" shard_storm_spec.Db_shard.sp_total_txns
    (total (fun r -> r.Db_shard.r_txns));
  List.iter
    (fun r ->
      check_bool
        (Printf.sprintf "shard %d conserved through the storm" r.Db_shard.r_shard)
        true r.Db_shard.r_conserved)
    results

let test_shard_storm_replay () =
  let a = run_shard_storm () in
  let b = run_shard_storm () in
  check_bool "storm replays seed-for-seed" true (a = b);
  let c =
    List.init shard_storm_spec.Db_shard.sp_shards (fun shard ->
        Db_shard.run_shard { shard_storm_spec with Db_shard.sp_seed = 99L } ~shard)
  in
  check_bool "different seed, different storm" true (a <> c)

(* ------------------------------------------------------------------ *)
(* The full experiment: every scenario, run twice, replay-equal        *)
(* ------------------------------------------------------------------ *)

let test_exp_chaos_end_to_end () =
  let r = Exp_chaos.run () in
  check_bool "replay: second run identical to the first" true r.Exp_chaos.replay_ok;
  List.iter
    (fun s ->
      check_int
        (s.Exp_chaos.s_name ^ ": frame conservation")
        s.Exp_chaos.s_frames_expected s.Exp_chaos.s_frames_owned;
      check_bool (s.Exp_chaos.s_name ^ ": storm injected failures") true
        (s.Exp_chaos.s_injected_failures > 0);
      check_bool (s.Exp_chaos.s_name ^ ": recovered after detach") true s.Exp_chaos.s_recovered)
    r.Exp_chaos.scenarios;
  List.iter
    (fun c -> check_bool (c.Exp_report.what ^ " passed") true c.Exp_report.pass)
    r.Exp_chaos.checks

let test_exp_chaos_seed_sensitivity () =
  let a = Exp_chaos.run () in
  let b = Exp_chaos.run ~seed:99L () in
  let fps r = List.map (fun s -> s.Exp_chaos.s_fingerprint) r.Exp_chaos.scenarios in
  check_bool "different seed, different storms" true (fps a <> fps b);
  check_bool "other seeds also conserve frames and recover" true
    (List.for_all
       (fun s ->
         s.Exp_chaos.s_frames_owned = s.Exp_chaos.s_frames_expected && s.Exp_chaos.s_recovered)
       b.Exp_chaos.scenarios)

let () =
  Alcotest.run "chaos"
    [
      ( "backing retries",
        [
          Alcotest.test_case "transient outage is retried" `Quick test_backing_retry_transient;
          Alcotest.test_case "budget exhaustion raises" `Quick test_backing_retry_exhaustion;
          Alcotest.test_case "bad block is permanent" `Quick test_backing_bad_block;
        ] );
      ( "generic manager",
        [
          Alcotest.test_case "storm: conservation + completion" `Quick test_generic_storm;
          Alcotest.test_case "storm replays seed-for-seed" `Quick test_generic_storm_replay;
        ] );
      ( "prefetch manager",
        [ Alcotest.test_case "dead fills degrade to demand" `Quick test_prefetch_degrades ] );
      ("write-ahead log", [ Alcotest.test_case "torn writes" `Quick test_wal_torn_write ]);
      ( "default manager",
        [ Alcotest.test_case "failed flush keeps the page dirty" `Quick
            test_default_flush_keeps_failed_page_dirty ] );
      ( "checkpoint manager",
        [ Alcotest.test_case "durability loss is survivable" `Quick test_checkpoint_durable_loss ]
      );
      ( "coloring manager",
        [
          Alcotest.test_case "traffic storm keeps colors + frames" `Quick
            test_coloring_traffic_storm;
          Alcotest.test_case "disk-fault storm under a cache (flat)" `Quick
            test_coloring_cache_storm_flat;
          Alcotest.test_case "disk-fault storm under a cache (tiered)" `Quick
            test_coloring_cache_storm_tiered;
        ] );
      ( "compressed manager",
        [ Alcotest.test_case "spill storm: conservation + recovery" `Quick
            test_compressed_spill_storm ] );
      ( "dsm manager",
        [
          Alcotest.test_case "coherence storm keeps MSI safety" `Quick test_dsm_coherence_storm;
          Alcotest.test_case "storm replays seed-for-seed" `Quick test_dsm_storm_replay;
        ] );
      ( "gc manager",
        [ Alcotest.test_case "garbage discards dodge the write storm" `Quick
            test_gc_discard_storm ] );
      ( "dbms manager",
        [ Alcotest.test_case "index paging through a read storm" `Quick
            test_dbms_index_paging_storm ] );
      ( "memory market",
        [
          Alcotest.test_case "tenant storm under disk faults" `Quick test_market_storm;
          Alcotest.test_case "storm replays seed-for-seed" `Quick test_market_storm_replay;
        ] );
      ( "sharded engine",
        [
          Alcotest.test_case "contention storm across shards" `Quick
            test_shard_contention_storm;
          Alcotest.test_case "storm replays seed-for-seed" `Quick test_shard_storm_replay;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "all scenarios, replayed" `Quick test_exp_chaos_end_to_end;
          Alcotest.test_case "seed sensitivity" `Quick test_exp_chaos_seed_sensitivity;
        ] );
    ]

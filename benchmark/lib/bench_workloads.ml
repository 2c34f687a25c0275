module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module G = Mgr_generic
module T = Mgr_tiered
module Engine = Sim_engine
module Tr = Bench_trace

type check = { what : string; ok : bool; failed_ops : int }
type host = { ns : int; words : int; minor_gcs : int; major_gcs : int }

type iteration = {
  setup : host;
  run : host;
  ops : int;
  events : int;
  counters : (string * float) list;
  checks : check list;
}

type mode = Timed | Traced of Bench_trace.t | Profiled

type t = { name : string; prepare : seed:int -> quick:bool -> mode -> iteration }

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let measure f =
  let s0 = Gc.quick_stat () in
  let w0 = Tr.minor_words () in
  let t0 = Tr.now_ns () in
  let r = f () in
  let t1 = Tr.now_ns () in
  let w1 = Tr.minor_words () in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      ns = t1 - t0;
      words = w1 - w0;
      minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

let span tr name ~key f = match tr with None -> f () | Some t -> Tr.span t (Tr.kind t name) ~key f

(* Set-up and run, each timed and each a root span of the trace. *)
let set_up_and_run tr ~build ~run =
  let world, setup = measure (fun () -> span tr "bench.setup" ~key:0 build) in
  let result, run_host = measure (fun () -> span tr "bench.run" ~key:0 (fun () -> run world)) in
  (world, result, setup, run_host)

let check what ok = { what; ok; failed_ops = 0 }
let count_check what ~failed = { what; ok = failed = 0; failed_ops = failed }
let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fi = float_of_int

let tracer = function Traced t -> Some t | Timed | Profiled -> None

let profile mode machine =
  match mode with Profiled -> Hw_machine.set_profiling machine true | Timed | Traced _ -> ()

(* Simulated time charged under each layer's labels ("kernel/...",
   "mgr/...", "dsm/..."), only recorded when the machine is profiled. *)
let charged_counters machine =
  let metrics = Hw_machine.metrics machine in
  if not (Sim_metrics.enabled metrics) then []
  else begin
    let kernel = ref 0.0 and mgr = ref 0.0 in
    List.iter
      (fun (path, _, us) ->
        match List.rev (String.split_on_char '/' path) with
        | _ :: "kernel" :: _ -> kernel := !kernel +. us
        | _ :: ("mgr" | "dsm") :: _ -> mgr := !mgr +. us
        | _ -> ())
      (Sim_metrics.charges metrics);
    [ ("epcm.charged_ms", !kernel /. 1000.0); ("mgr.charged_ms", !mgr /. 1000.0) ]
  end

let machine_counters machine kernel =
  let s = K.stats kernel in
  let faults = s.K.faults_missing + s.K.faults_protection + s.K.faults_cow in
  let tlb = machine.Hw_machine.tlb and pt = machine.Hw_machine.page_table in
  let accesses, _, misses = Hw_machine.cache_stats machine in
  [
    ("sim.sim_s", Hw_machine.now machine /. 1e6);
    ("hw.tlb_hit_frac", Hw_tlb.hit_rate tlb);
    ("hw.tlb_misses", fi (Hw_tlb.misses tlb));
    ("hw.pt_hits", fi (Hw_page_table.hits pt));
    ("hw.pt_misses", fi (Hw_page_table.misses pt));
    ("hw.pt_collisions", fi (Hw_page_table.collisions pt));
    ("hw.pt_super_hits", fi (Hw_page_table.super_hits pt));
    ("hw.l2_miss_frac", frac misses accesses);
    ("hw.disk_reads", fi (Hw_disk.reads machine.Hw_machine.disk));
    ("hw.disk_writes", fi (Hw_disk.writes machine.Hw_machine.disk));
    ("epcm.touches", fi s.K.touches);
    ("epcm.faults", fi faults);
    ("epcm.fault_frac", frac faults s.K.touches);
    ("epcm.migrate_calls", fi s.K.migrate_calls);
    ("epcm.migrated_pages", fi s.K.migrated_pages);
    ("epcm.sp_promotions", fi s.K.sp_promotions);
    ("epcm.sp_demotions", fi s.K.sp_demotions);
  ]
  @ charged_counters machine

let conservation kernel machine =
  [
    check "frame conservation: incremental audit = scan, every frame owned"
      (K.frame_owner_total kernel = Hw_machine.n_frames machine
      && K.frame_owner_audit kernel = K.frame_owner_audit_scan kernel);
    check "zero live processes" (Engine.live_processes machine.Hw_machine.engine = 0);
  ]

let tier_conservation kernel machine =
  let mem = machine.Hw_machine.mem in
  let audit = K.frame_owner_audit_tiered kernel in
  let column k = List.fold_left (fun acc (_, per_tier) -> acc + per_tier.(k)) 0 audit in
  check "per-tier frame conservation: audit = scan, each tier column = tier frames"
    (audit = K.frame_owner_audit_tiered_scan kernel
    && List.for_all
         (fun k -> column k = (Hw_phys_mem.tier mem k).Hw_phys_mem.ti_frames)
         (List.init (Hw_phys_mem.n_tiers mem) Fun.id))

(* The traced wrappers below open spans with Tr.enter/Tr.leave rather
   than Tr.span, so no closure is allocated inside the enclosing span and
   its word count stays that of the simulator's own code. *)
let reraise t e =
  Tr.leave t;
  raise e

(* One touch. Traced, it is a span named by whether it faulted. *)
let toucher tr kernel =
  match tr with
  | None -> fun space page access -> K.touch kernel ~space ~page ~access
  | Some t ->
      let warm = Tr.kind t "epcm.touch_warm" and faulting = Tr.kind t "epcm.touch_fault" in
      let stats = K.stats kernel in
      let faults () = stats.K.faults_missing + stats.K.faults_protection + stats.K.faults_cow in
      fun space page access ->
        Tr.enter t warm ~key:page;
        let before = faults () in
        (match K.touch kernel ~space ~page ~access with () -> () | exception e -> reraise t e);
        if faults () <> before then Tr.relabel t faulting;
        Tr.leave t

let migrator tr kernel =
  match tr with
  | None ->
      fun ~src ~dst ~src_page ~dst_page ~count ->
        K.migrate_pages kernel ~src ~dst ~src_page ~dst_page ~count ()
  | Some t ->
      let k = Tr.kind t "epcm.migrate_pages" in
      fun ~src ~dst ~src_page ~dst_page ~count ->
        Tr.enter t k ~key:dst_page;
        (match K.migrate_pages kernel ~src ~dst ~src_page ~dst_page ~count () with
        | () -> ()
        | exception e -> reraise t e);
        Tr.leave t

(* The SPCM stand-in of Wl_scale: grant frames out of the initial segment,
   scanning it once over the whole run; [budget] caps the total granted so
   the churn phase runs under real memory pressure. *)
let capped_source tr kernel ~budget : G.source =
  let migrate = migrator tr kernel in
  let init = K.initial_segment kernel in
  let next = ref 0 and granted_total = ref 0 in
  let grant ~dst ~dst_page ~count =
    let init_seg = K.segment kernel init in
    let count = min count (max 0 (budget - !granted_total)) in
    let granted = ref 0 in
    while !granted < count && !next < Seg.length init_seg do
      if (Seg.page init_seg !next).Seg.frame <> None then begin
        migrate ~src:init ~dst ~src_page:!next ~dst_page:(dst_page + !granted) ~count:1;
        incr granted
      end;
      incr next
    done;
    granted_total := !granted_total + !granted;
    !granted
  in
  match tr with
  | None -> grant
  | Some t ->
      let k = Tr.kind t "mgr.source" in
      fun ~dst ~dst_page ~count ->
        Tr.enter t k ~key:dst_page;
        let n = try grant ~dst ~dst_page ~count with e -> reraise t e in
        Tr.leave t;
        n

let traced_hooks tr (h : G.hooks) =
  match tr with
  | None -> h
  | Some t ->
      let fill = Tr.kind t "mgr.fill"
      and batch = Tr.kind t "mgr.batch_of"
      and evict = Tr.kind t "mgr.on_eviction" in
      {
        h with
        G.fill =
          (fun ~seg ~page ~kind ~high_water ->
            Tr.enter t fill ~key:page;
            let data = try h.G.fill ~seg ~page ~kind ~high_water with e -> reraise t e in
            Tr.leave t;
            data);
        batch_of =
          (fun ~seg ~page ~kind ~high_water ->
            Tr.enter t batch ~key:page;
            let n = try h.G.batch_of ~seg ~page ~kind ~high_water with e -> reraise t e in
            Tr.leave t;
            n);
        on_eviction =
          (fun ~seg ~page ~dirty ->
            Tr.enter t evict ~key:page;
            let verdict = try h.G.on_eviction ~seg ~page ~dirty with e -> reraise t e in
            Tr.leave t;
            verdict);
      }

let phase tr i f = span tr "bench.phase" ~key:i f

let permutation rng n =
  let a = Array.init n Fun.id in
  Sim_rng.shuffle rng a;
  a

(* ------------------------------------------------------------------ *)
(* paging: the flat kernel/manager fast paths                          *)
(* ------------------------------------------------------------------ *)

(* The Wl_scale phases on a 1 GB single-tier machine with one process:
   epcm, hw and mgr do nearly all the work and Sim_engine.delay stays on
   its fast path, while no tier, cache, superpage, spcm or dbms code
   runs. Scan and churn order come from the seed. *)

type paging_world = {
  p_machine : Hw_machine.t;
  p_kernel : K.t;
  p_managers : G.t list;
  p_heap : Seg.id;
  p_stage : Seg.id;
  p_churn : Seg.id;
}

let paging_prepare ~seed ~quick =
  let memory_bytes = (if quick then 16 else 1024) * 1024 * 1024 in
  let frames = memory_bytes / 4096 in
  let heap_pages = frames / 2 and churn_pages = frames / 8 in
  let churn_budget = churn_pages * 3 / 4 and batch = 64 in
  let rng = Sim_rng.create (Int64.of_int seed) in
  let scans = Array.init 2 (fun _ -> permutation rng heap_pages) in
  let churns = Array.init 2 (fun _ -> permutation rng churn_pages) in
  fun mode ->
    let tr = tracer mode in
    let build () =
      let machine =
        span tr "hw.create" ~key:0 (fun () -> Hw_machine.create ~memory_bytes ~page_size:4096 ())
      in
      profile mode machine;
      let kernel = span tr "epcm.create" ~key:0 (fun () -> K.create machine) in
      span tr "mgr.create" ~key:0 (fun () ->
          let manager name ~budget ~refill ?reclaim () =
            let backing = Mgr_backing.memory () in
            G.create kernel ~name ~mode:`In_process ~backing
              ~source:(capped_source tr kernel ~budget)
              ~hooks:(traced_hooks tr (G.default_hooks ~backing))
              ~pool_capacity:budget ~refill_batch:refill ?reclaim_batch:reclaim ()
          in
          let pager = manager "paging-pager" ~budget:(heap_pages + (2 * batch)) ~refill:256 () in
          let churner = manager "paging-churner" ~budget:churn_budget ~refill:64 ~reclaim:32 () in
          {
            p_machine = machine;
            p_kernel = kernel;
            p_managers = [ pager; churner ];
            p_heap = G.create_segment pager ~name:"paging-heap" ~pages:heap_pages ~kind:G.Anon ();
            p_stage = K.create_segment kernel ~name:"paging-stage" ~pages:batch ();
            p_churn =
              G.create_segment churner ~name:"paging-churn" ~pages:churn_pages
                ~kind:(G.File { file_id = 11 }) ~high_water:churn_pages ();
          })
    in
    let run w =
      let touch = toucher tr w.p_kernel and migrate = migrator tr w.p_kernel in
      let engine = w.p_machine.Hw_machine.engine in
      Engine.spawn engine (fun () ->
          (* Cold write faults: pool refills and frame migrations. *)
          phase tr 0 (fun () ->
              for page = 0 to heap_pages - 1 do
                touch w.p_heap page Mgr.Write
              done);
          (* Two warm scans in seeded order: the translation paths. *)
          phase tr 1 (fun () ->
              Array.iter (Array.iter (fun page -> touch w.p_heap page Mgr.Read)) scans);
          (* MigratePages ping-pong over the first quarter of the heap. *)
          phase tr 2 (fun () ->
              for i = 0 to max 1 (heap_pages / 4 / batch) - 1 do
                let base = i * batch in
                migrate ~src:w.p_heap ~dst:w.p_stage ~src_page:base ~dst_page:0 ~count:batch;
                migrate ~src:w.p_stage ~dst:w.p_heap ~src_page:0 ~dst_page:base ~count:batch
              done);
          (* Churn under a frame budget: clock reclaim and writeback. *)
          phase tr 3 (fun () ->
              Array.iteri
                (fun round order ->
                  Array.iteri
                    (fun i page ->
                      touch w.p_churn page (if (i + round) mod 2 = 0 then Mgr.Write else Mgr.Read))
                    order)
                churns));
      span tr "sim.run" ~key:0 (fun () -> Engine.run engine)
    in
    let w, (), setup, run_host = set_up_and_run tr ~build ~run in
    let s = K.stats w.p_kernel in
    let sum f = List.fold_left (fun acc m -> acc + f (G.stats m)) 0 w.p_managers in
    let expected = (3 * heap_pages) + (2 * churn_pages) in
    {
      setup;
      run = run_host;
      ops = s.K.touches;
      events = Engine.events_executed w.p_machine.Hw_machine.engine;
      counters =
        machine_counters w.p_machine w.p_kernel
        @ [
            ("mgr.fills", fi (sum (fun g -> g.G.fills)));
            ("mgr.reclaimed", fi (sum (fun g -> g.G.reclaimed)));
            ("mgr.writebacks", fi (sum (fun g -> g.G.writebacks)));
            ("mgr.refill_requests", fi (sum (fun g -> g.G.refill_requests)));
          ];
      checks =
        conservation w.p_kernel w.p_machine
        @ [
            count_check "every scheduled touch issued" ~failed:(abs (s.K.touches - expected));
            count_check "no fill or writeback failed"
              ~failed:(sum (fun g -> g.G.fill_failures + g.G.writeback_failures));
          ];
    }

let paging = { name = "paging"; prepare = paging_prepare }

(* ------------------------------------------------------------------ *)
(* placement: tiers, L2 and superpages all on                          *)
(* ------------------------------------------------------------------ *)

(* The same kernel used the other way: every tier, cache and superpage
   guard that paging skips is taken here, so a restructuring that speeds
   one path and slows the other shows in one of the two workloads. *)

type placement_world = { l_machine : Hw_machine.t; l_kernel : K.t; l_mgr : T.t; l_heap : Seg.id }

let placement_prepare ~seed ~quick =
  let fast = if quick then 1024 else 4096 in
  let slow = 3 * fast and pages = 5 * fast / 2 in
  let hot = fast / 2 and epochs = 64 in
  let per_epoch = 2 * hot in
  let drift = pages / epochs in
  (* A hot window that drifts across the heap: 90% of touches land in it,
     the rest anywhere; a quarter are writes. Encoded page * 2 + write. *)
  let rng = Sim_rng.create (Int64.of_int seed) in
  let trace =
    Array.init (epochs * per_epoch) (fun i ->
        let base = i / per_epoch * drift in
        let page =
          if Sim_rng.bernoulli rng 0.9 then (base + Sim_rng.int rng hot) mod pages
          else Sim_rng.int rng pages
        in
        (2 * page) + if Sim_rng.bernoulli rng 0.25 then 1 else 0)
  in
  fun mode ->
    let tr = tracer mode in
    let build () =
      let machine =
        span tr "hw.create" ~key:0 (fun () ->
            Hw_machine.create ~page_size:4096
              ~cache:(Hw_machine.l2_cache ~size_bytes:(256 * 1024) ())
              ~tiers:
                [
                  Hw_phys_mem.dram_tier ~bytes:(fast * 4096);
                  Hw_phys_mem.slow_dram_tier ~bytes:(slow * 4096);
                ]
              ())
      in
      profile mode machine;
      let kernel = span tr "epcm.create" ~key:0 (fun () -> K.create machine) in
      span tr "mgr.create" ~key:0 (fun () ->
          let mgr = T.create kernel ~name:"placement" () in
          let heap = T.create_segment mgr ~name:"placement-heap" ~pages ~superpages:true () in
          { l_machine = machine; l_kernel = kernel; l_mgr = mgr; l_heap = heap })
    in
    let run w =
      let touch = toucher tr w.l_kernel in
      let engine = w.l_machine.Hw_machine.engine in
      Engine.spawn engine (fun () ->
          (* Cold fill: whole superpage runs from the fast tier until it
             runs dry, then the demotion cascade splits them. *)
          phase tr 0 (fun () ->
              for page = 0 to pages - 1 do
                touch w.l_heap page Mgr.Write
              done);
          (* The drifting hot set: promotions by protection fault,
             demotions by the clock, L2 conflicts by placement. *)
          phase tr 1 (fun () ->
              Array.iter
                (fun code ->
                  touch w.l_heap (code lsr 1) (if code land 1 = 1 then Mgr.Write else Mgr.Read))
                trace));
      span tr "sim.run" ~key:0 (fun () -> Engine.run engine)
    in
    let w, (), setup, run_host = set_up_and_run tr ~build ~run in
    let s = K.stats w.l_kernel and m = T.stats w.l_mgr in
    let accesses, hits, misses = Hw_machine.cache_stats w.l_machine in
    let demotions = m.T.demotions_slow + m.T.demotions_compressed in
    {
      setup;
      run = run_host;
      ops = s.K.touches;
      events = Engine.events_executed w.l_machine.Hw_machine.engine;
      counters =
        machine_counters w.l_machine w.l_kernel
        @ [
            ("mgr.fills", fi m.T.fills);
            ("mgr.promotions", fi m.T.promotions);
            ("mgr.demotions", fi demotions);
          ];
      checks =
        conservation w.l_kernel w.l_machine
        @ [
            tier_conservation w.l_kernel w.l_machine;
            check "L2 accounting: accesses = hits + misses" (accesses = hits + misses);
            count_check "every scheduled touch issued"
              ~failed:(abs (s.K.touches - pages - Array.length trace));
            check "promotion, demotion, superpage promote/split and L2 misses all fired"
              (m.T.promotions > 0 && demotions > 0 && s.K.sp_promotions > 0
             && s.K.sp_demotions > 0 && misses > 0);
          ];
    }

let placement = { name = "placement"; prepare = placement_prepare }

(* ------------------------------------------------------------------ *)
(* oltp: the sharded DebitCredit engine                                *)
(* ------------------------------------------------------------------ *)

(* A closed loop of 8 workers per shard. The WAL force per commit, the
   lock tables, 2PC and the engine's heap/suspend path do the work; the
   accounts relation is pinned, so epcm and hw barely run. *)

let oltp_prepare ~seed ~quick =
  let shards = 4 and per_shard = if quick then 2_000 else 100_000 in
  let spec =
    {
      Db_shard.default with
      Db_shard.sp_shards = shards;
      sp_total_txns = shards * per_shard;
      sp_seed = Int64.of_int seed;
    }
  in
  fun mode ->
    let tr = tracer mode in
    let build () =
      Array.init shards (fun shard ->
          span tr "dbms.build" ~key:shard (fun () -> Db_shard.build spec ~shard))
    in
    (* Shards share nothing, so running them one after another on one
       domain gives the same results as running them side by side. *)
    let run worlds =
      Array.mapi
        (fun shard w -> span tr "dbms.execute" ~key:shard (fun () -> Db_shard.execute w))
        worlds
      |> Array.to_list
    in
    let _, results, setup, run_host = set_up_and_run tr ~build ~run in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
    let worst f = List.fold_left (fun acc r -> Float.max acc (f r)) 0.0 results in
    let txns = sum (fun r -> r.Db_shard.r_txns) and cross = sum (fun r -> r.Db_shard.r_cross) in
    {
      setup;
      run = run_host;
      ops = txns;
      events = sum (fun r -> r.Db_shard.r_events);
      counters =
        [
          ("sim.sim_s", worst (fun r -> r.Db_shard.r_sim_us) /. 1e6);
          ( "dbms.sim_tps",
            List.fold_left (fun acc r -> acc +. r.Db_shard.r_tps) 0.0 results );
          ("dbms.txn_p50_ms", worst (fun r -> r.Db_shard.r_p50_ms));
          ("dbms.txn_p99_ms", worst (fun r -> r.Db_shard.r_p99_ms));
          ("dbms.aborts", fi (sum (fun r -> r.Db_shard.r_aborts)));
          ("dbms.wal_flushes_per_txn", frac (sum (fun r -> r.Db_shard.r_wal_flushes)) txns);
          ("dbms.lock_timeouts", fi (sum (fun r -> r.Db_shard.r_lock_timeouts)));
          ("dbms.prepares", fi (sum (fun r -> r.Db_shard.r_prepares)));
          ("dbms.msgs_per_cross", frac (sum (fun r -> r.Db_shard.r_msgs)) cross);
          ("dbms.dsm_transfers_per_cross", frac (sum (fun r -> r.Db_shard.r_dsm_transfers)) cross);
        ];
      checks =
        [
          count_check "every shard conserved frames with zero live processes"
            ~failed:(List.length (List.filter (fun r -> not r.Db_shard.r_conserved) results));
          count_check "commits + aborts = local + cross = the shard's transactions"
            ~failed:
              (sum (fun r ->
                   let share = Db_shard.shard_txns spec ~shard:r.Db_shard.r_shard in
                   abs (r.Db_shard.r_commits + r.Db_shard.r_aborts - share)
                   + abs (r.Db_shard.r_local + r.Db_shard.r_cross - share)));
        ];
    }

let oltp = { name = "oltp"; prepare = oltp_prepare }

(* ------------------------------------------------------------------ *)
(* market: SPCM admission and settlement under an open loop            *)
(* ------------------------------------------------------------------ *)

(* The only workload where the SPCM (admission heap, lazy settlement,
   sweep) and Mgr_generic swap-out under pressure are hot. *)

let market_prepare ~seed ~quick =
  let preset = if quick then Wl_market.small else Wl_market.production in
  let cfg = { preset with Wl_market.c_seed = Int64.of_int seed } in
  fun mode ->
    let tr = tracer mode in
    (* Wl_market.run builds its machine itself; set-up times the same
       constructors for the same configuration. *)
    let build () =
      let machine =
        span tr "hw.create" ~key:0 (fun () ->
            Hw_machine.create ~memory_bytes:cfg.Wl_market.c_memory_bytes
              ~page_size:cfg.Wl_market.c_page_size ())
      in
      let kernel = span tr "epcm.create" ~key:0 (fun () -> K.create machine) in
      ignore
        (span tr "spcm.create" ~key:0 (fun () ->
             Spcm.create kernel ~market:cfg.Wl_market.c_market ()))
    in
    let run () = span tr "wl.market" ~key:0 (fun () -> Wl_market.run cfg) in
    let _, r, setup, run_host = set_up_and_run tr ~build ~run in
    let interactive =
      List.find (fun c -> c.Wl_market.sc_class = "interactive") r.Wl_market.r_slos
    in
    {
      setup;
      run = run_host;
      ops = r.Wl_market.r_tenants;
      events = r.Wl_market.r_events;
      counters =
        [
          ("sim.sim_s", r.Wl_market.r_sim_us /. 1e6);
          ("epcm.faults", fi r.Wl_market.r_faults);
          ("spcm.defer_events", fi r.Wl_market.r_defer_events);
          ("spcm.defers_per_tenant", frac r.Wl_market.r_defer_events r.Wl_market.r_tenants);
          ("spcm.granted_frames", fi r.Wl_market.r_granted_frames);
          ("spcm.saver_cycles", fi r.Wl_market.r_saver_cycles);
          ("spcm.saver_starved", fi r.Wl_market.r_saver_starved);
          ("spcm.refused", fi r.Wl_market.r_refused);
          ("spcm.conservation_residual", r.Wl_market.r_conservation_residual);
          ("spcm.slo_p50_us", interactive.Wl_market.sc_p50_us);
          ("spcm.slo_p99_us", interactive.Wl_market.sc_p99_us);
          ( "spcm.slo_violation_frac",
            frac interactive.Wl_market.sc_violations interactive.Wl_market.sc_completed );
        ];
      checks =
        [
          check "frame audits agree, zero live processes, no queued waiters, holdings returned"
            r.Wl_market.r_conserved;
          check "dram conservation residual below 1e-9"
            (r.Wl_market.r_conservation_residual < 1e-9);
          count_check "every tenant completed or was refused"
            ~failed:(abs (r.Wl_market.r_tenants - r.Wl_market.r_completed - r.Wl_market.r_refused));
          count_check "no backing I/O failed" ~failed:r.Wl_market.r_io_failures;
        ];
    }

let market = { name = "market"; prepare = market_prepare }

(* ------------------------------------------------------------------ *)
(* paper: Tables 1-4                                                   *)
(* ------------------------------------------------------------------ *)

(* The paper's own inputs, so the seed is unused. The only workload that
   runs ultrix and Db_engine disk paging, and where the error against the
   paper's numbers is measured. *)

let table4_paper_avg_ms =
  [
    ("No index", 866.0);
    ("Index in memory", 43.0);
    ("Index with paging", 575.0);
    ("Index regeneration", 55.0);
  ]

let rel_err_pct ~measured ~paper = 100.0 *. Float.abs (measured -. paper) /. paper
let max_of = List.fold_left Float.max 0.0

(* Worst relative error against the paper over every Table 1-3 cell the
   paper reports. *)
let fit_err_pct (t1 : Exp_table1.result) (t2 : Exp_table2.result) (t3 : Exp_table3.result) =
  let opt measured paper =
    match (measured, paper) with
    | Some measured, Some paper -> [ rel_err_pct ~measured ~paper ]
    | _ -> []
  in
  max_of
    (List.concat_map
       (fun (r : Exp_table1.row) ->
         opt r.Exp_table1.vpp_us r.Exp_table1.paper_vpp
         @ opt r.Exp_table1.ultrix_us r.Exp_table1.paper_ultrix)
       t1.Exp_table1.rows
    @ List.concat_map
        (fun (r : Exp_table2.row) ->
          [
            rel_err_pct ~measured:r.Exp_table2.vpp_s ~paper:r.Exp_table2.paper_vpp;
            rel_err_pct ~measured:r.Exp_table2.ultrix_s ~paper:r.Exp_table2.paper_ultrix;
          ])
        t2.Exp_table2.rows
    @ List.concat_map
        (fun (r : Exp_table3.row) ->
          [
            rel_err_pct ~measured:(fi r.Exp_table3.manager_calls)
              ~paper:(fi r.Exp_table3.paper_calls);
            rel_err_pct ~measured:(fi r.Exp_table3.migrate_calls)
              ~paper:(fi r.Exp_table3.paper_migrates);
            rel_err_pct ~measured:r.Exp_table3.overhead_ms ~paper:r.Exp_table3.paper_overhead_ms;
          ])
        t3.Exp_table3.rows)

let paper_prepare ~seed:_ ~quick =
  let t4_pages =
    let c = Db_config.base in
    4096 + 1024 + 1024 + c.Db_config.summary_pages
    + (c.Db_config.n_indices * c.Db_config.index_pages)
    + 4096
  in
  fun mode ->
    let tr = tracer mode in
    (* The tables build their machines inside each run; set-up times the
       same constructors: the 128 MB DECstation of Tables 2-3 and the
       SGI 4D/380 of Table 4. *)
    let build () =
      List.iter
        (fun (preset, bytes) ->
          let machine =
            span tr "hw.create" ~key:0 (fun () -> Hw_machine.create ~preset ~memory_bytes:bytes ())
          in
          ignore (span tr "epcm.create" ~key:0 (fun () -> K.create machine)))
        [
          (Hw_machine.Decstation_5000_200, 128 * 1024 * 1024);
          (Hw_machine.Sgi_4d_380, t4_pages * 4096);
        ]
    in
    let run () =
      let t1 = span tr "exp.table1" ~key:1 Exp_table1.run in
      let t2 = span tr "exp.table2" ~key:2 Exp_table2.run in
      let t3 = span tr "exp.table3" ~key:3 Exp_table3.run in
      let t4 = span tr "exp.table4" ~key:4 (fun () -> Exp_table4.run ~quick ()) in
      (t1, t2, t3, t4)
    in
    let _, (t1, t2, t3, t4), setup, run_host = set_up_and_run tr ~build ~run in
    let rows = t4.Exp_table4.rows in
    let t4_err =
      max_of
        (List.map
           (fun (r : Db_engine.result) ->
             rel_err_pct ~measured:r.Db_engine.avg_ms
               ~paper:(List.assoc r.Db_engine.label table4_paper_avg_ms))
           rows)
    in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
    let checks =
      List.concat_map
        (fun (table, cs) ->
          List.map
            (fun (c : Exp_report.check) ->
              count_check (table ^ ": " ^ c.Exp_report.what)
                ~failed:(if c.Exp_report.pass then 0 else 1))
            cs)
        [
          ("Table 1", t1.Exp_table1.checks);
          ("Table 2", t2.Exp_table2.checks);
          ("Table 3", t3.Exp_table3.checks);
          ("Table 4", t4.Exp_table4.checks);
        ]
    in
    {
      setup;
      run = run_host;
      ops = List.length checks;
      events = 0;
      counters =
        [
          ("paper.fit_err_pct", fit_err_pct t1 t2 t3);
          ("paper.table4_err_pct", t4_err);
          ("dbms.t4_page_ins", fi (sum (fun r -> r.Db_engine.page_in_events)));
          ("dbms.t4_lock_waits", fi (sum (fun r -> r.Db_engine.lock_waits)));
          ( "dbms.t4_cpu_util",
            List.fold_left (fun acc r -> acc +. r.Db_engine.cpu_utilisation) 0.0 rows
            /. fi (List.length rows) );
        ];
      checks;
    }

let paper = { name = "paper"; prepare = paper_prepare }

let all = [ paging; placement; oltp; market; paper ]
let find name = List.find_opt (fun w -> w.name = name) all

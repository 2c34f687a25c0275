module K = Epcm_kernel
module Mgr = Epcm_manager
module G = Mgr_generic
module Engine = Sim_engine

type config = {
  c_name : string;
  c_memory_bytes : int;
  c_page_size : int;
}

type result = { r_name : string; r_memory_bytes : int; r_obs : K.observation }

let config ~name ~memory_bytes = { c_name = name; c_memory_bytes = memory_bytes; c_page_size = 4096 }

let size_8mb = config ~name:"8mb" ~memory_bytes:(8 * 1024 * 1024)
let size_512mb = config ~name:"512mb" ~memory_bytes:(512 * 1024 * 1024)
let size_4gb = config ~name:"4gb" ~memory_bytes:(4 * 1024 * 1024 * 1024)
let standard_sizes = [ size_8mb; size_512mb; size_4gb ]

type stream_result = {
  s_name : string;
  s_memory_bytes : int;
  s_superpages : bool;
  s_run : int;
  s_stream_pages : int;
  s_sp_promotions : int;
  s_sp_demotions : int;
  s_obs : K.observation;
}

let run_stream ?(superpages = false) cfg =
  let machine = Hw_machine.create ~memory_bytes:cfg.c_memory_bytes ~page_size:cfg.c_page_size () in
  let kernel = K.create machine in
  let frames = Hw_machine.n_frames machine in
  let run = K.super_pages kernel in
  (* Half of memory, rounded to whole superpage regions so both legs
     stream the same page count. *)
  let stream_pages = max run (frames / 2 / run * run) in
  let slack = run in
  let backing = Mgr_backing.memory () in
  let sp_source =
    (* One whole aligned run per request, scanned monotonically — the
       SPCM stand-in for superpage-backed streaming. *)
    let cursor = ref 0 in
    fun ~dst ~dst_page ->
      match K.grant_superpage_run kernel ~dst ~dst_page ~start:!cursor with
      | Some base ->
          cursor := base + run;
          run
      | None -> 0
  in
  let pager =
    G.create kernel ~name:"stream-pager" ~mode:`In_process ~backing
      ~source:(K.initial_source kernel ~budget:(stream_pages + slack))
      ?sp_source:(if superpages then Some sp_source else None)
      ~pool_capacity:(stream_pages + slack) ~refill_batch:256 ()
  in
  let seg =
    G.create_segment pager ~name:"stream-heap" ~pages:stream_pages ~kind:G.Anon ~superpages ()
  in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      (* Phase 1: cold sequential stream. With superpages on, the first
         touch of each aligned region pulls one whole run in a single
         MigratePages and the region promotes — the remaining 511 touches
         never fault. *)
      for page = 0 to stream_pages - 1 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Write
      done;
      (* Phase 2: warm rescan — the translation fast path; promoted
         regions serve whole runs from one mapping entry. *)
      for page = 0 to stream_pages - 1 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Read
      done;
      (* Phase 3: evict part of the first region — on the superpage leg
         this splits the 2 MB mapping back to 4 KB — then re-touch it,
         refaulting through the ordinary pool path. *)
      let quarter = max 1 (run / 4) in
      K.release_frames kernel ~seg ~page:0 ~count:quarter;
      for page = 0 to quarter - 1 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Write
      done);
  Engine.run machine.Hw_machine.engine;
  let stats = K.stats kernel in
  {
    s_name = cfg.c_name;
    s_memory_bytes = cfg.c_memory_bytes;
    s_superpages = superpages;
    s_run = run;
    s_stream_pages = stream_pages;
    s_sp_promotions = stats.K.sp_promotions;
    s_sp_demotions = stats.K.sp_demotions;
    s_obs = K.observe kernel;
  }

let run cfg =
  let machine = Hw_machine.create ~memory_bytes:cfg.c_memory_bytes ~page_size:cfg.c_page_size () in
  let kernel = K.create machine in
  let frames = Hw_machine.n_frames machine in
  (* Working set: half of memory demand-paged, an eighth churned under
     pressure, migrate ping-pong over a quarter. All sizes scale linearly
     with the machine so ops/sec is comparable across sizes. *)
  let seg_pages = max 16 (frames / 2) in
  let churn_pages = max 16 (frames / 8) in
  let churn_budget = max 12 (churn_pages * 3 / 4) in
  let migrate_batch = 64 in
  let backing = Mgr_backing.memory () in
  (* Phase A/B manager: ample frames — pure demand-paging cost. *)
  let pager =
    G.create kernel ~name:"scale-pager" ~mode:`In_process ~backing
      ~source:(K.initial_source kernel ~budget:(seg_pages + (migrate_batch * 2)))
      ~pool_capacity:(seg_pages + (migrate_batch * 2))
      ~refill_batch:256 ()
  in
  let seg = G.create_segment pager ~name:"scale-heap" ~pages:seg_pages ~kind:G.Anon () in
  (* Migrate target: unmanaged staging segment, same page size. *)
  let stage = K.create_segment kernel ~name:"scale-stage" ~pages:migrate_batch () in
  (* Churn manager: capped source, small pool — touching more pages than
     the budget forces clock reclaim and writeback at every size. *)
  let churn_backing = Mgr_backing.memory () in
  let churner =
    G.create kernel ~name:"scale-churner" ~mode:`In_process ~backing:churn_backing
      ~source:(K.initial_source kernel ~budget:churn_budget)
      ~pool_capacity:churn_budget ~refill_batch:64 ~reclaim_batch:32 ()
  in
  let churn =
    G.create_segment churner ~name:"scale-churn" ~pages:churn_pages
      ~kind:(G.File { file_id = 11 }) ~high_water:churn_pages ()
  in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      (* Phase A: cold write-touch every page — missing faults, pool
         refills, frame migrations out of the initial segment. *)
      for page = 0 to seg_pages - 1 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Write
      done;
      (* Phase B: two warm scans — the translation fast path. *)
      for _ = 1 to 2 do
        for page = 0 to seg_pages - 1 do
          K.touch kernel ~space:seg ~page ~access:Mgr.Read
        done
      done;
      (* Phase C: batch migrate ping-pong over the first quarter of the
         heap — the MigratePages throughput axis. *)
      let windows = max 1 (seg_pages / 4 / migrate_batch) in
      for w = 0 to windows - 1 do
        let base = w * migrate_batch in
        K.migrate_pages kernel ~src:seg ~dst:stage ~src_page:base ~dst_page:0
          ~count:migrate_batch ();
        K.migrate_pages kernel ~src:stage ~dst:seg ~src_page:0 ~dst_page:base
          ~count:migrate_batch ()
      done;
      (* Phase D: churn under pressure — more pages than the frame budget,
         two rounds of mixed reads and writes, forcing eviction and
         writeback through the manager's clock. *)
      for round = 0 to 1 do
        for page = 0 to churn_pages - 1 do
          let access = if (page + round) mod 2 = 0 then Mgr.Write else Mgr.Read in
          K.touch kernel ~space:churn ~page ~access
        done
      done);
  Engine.run machine.Hw_machine.engine;
  { r_name = cfg.c_name; r_memory_bytes = cfg.c_memory_bytes; r_obs = K.observe kernel }
